//! Transformer-encoder workloads expressed as GEMM layer tables.
//!
//! The paper motivates latency-oriented systolic-array design partly with
//! workloads that are hard to batch (RNNs, real-time inference). Transformer
//! encoder layers are the modern incarnation of that argument: single-batch
//! inference is a sequence of moderate GEMMs whose streaming dimension is
//! the sequence length, so the optimal pipeline depth shifts with the
//! sequence length exactly as Equation (7) predicts. These tables are an
//! extension beyond the paper's CNN evaluation.

use crate::layer::Layer;
use crate::network::Network;
use gemm::GemmDims;

/// Configuration of a transformer encoder stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Number of encoder layers.
    pub layers: u32,
    /// Model (hidden) dimension.
    pub hidden: u64,
    /// Number of attention heads.
    pub heads: u64,
    /// Feed-forward inner dimension.
    pub feed_forward: u64,
    /// Sequence length of single-batch inference.
    pub sequence_length: u64,
}

impl TransformerConfig {
    /// BERT-base: 12 layers, hidden 768, 12 heads, FFN 3072.
    #[must_use]
    pub fn bert_base(sequence_length: u64) -> Self {
        Self {
            layers: 12,
            hidden: 768,
            heads: 12,
            feed_forward: 3072,
            sequence_length,
        }
    }

    /// Head dimension (`hidden / heads`).
    #[must_use]
    pub fn head_dim(&self) -> u64 {
        self.hidden / self.heads
    }
}

/// Builds the GEMM layer table of a transformer encoder stack for
/// single-batch inference.
///
/// Per encoder layer the table contains: the fused QKV projection, the
/// per-head attention-score and attention-context matrix products, the
/// attention output projection and the two feed-forward projections.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero dimensions or a hidden
/// size not divisible by the head count).
#[must_use]
pub fn transformer_encoder(config: TransformerConfig) -> Network {
    assert!(
        config.layers > 0
            && config.hidden > 0
            && config.heads > 0
            && config.feed_forward > 0
            && config.sequence_length > 0,
        "transformer configuration must be non-degenerate"
    );
    assert!(
        config.hidden % config.heads == 0,
        "hidden size must be divisible by the head count"
    );
    let seq = config.sequence_length;
    let d = config.hidden;
    let dh = config.head_dim();
    let mut layers = Vec::new();
    let mut index = 1u32;
    for layer in 1..=config.layers {
        // Fused Q/K/V projection: (seq x d) x (d x 3d).
        layers.push(Layer::matmul(
            index,
            format!("l{layer}.qkv"),
            GemmDims::new(3 * d, d, seq),
            1,
        ));
        index += 1;
        // Attention scores per head: (seq x dh) x (dh x seq).
        layers.push(Layer::matmul(
            index,
            format!("l{layer}.scores"),
            GemmDims::new(seq, dh, seq),
            config.heads,
        ));
        index += 1;
        // Attention context per head: (seq x seq) x (seq x dh).
        layers.push(Layer::matmul(
            index,
            format!("l{layer}.context"),
            GemmDims::new(dh, seq, seq),
            config.heads,
        ));
        index += 1;
        // Attention output projection: (seq x d) x (d x d).
        layers.push(Layer::matmul(
            index,
            format!("l{layer}.proj"),
            GemmDims::new(d, d, seq),
            1,
        ));
        index += 1;
        // Feed-forward expansion and contraction.
        layers.push(Layer::matmul(
            index,
            format!("l{layer}.ffn1"),
            GemmDims::new(config.feed_forward, d, seq),
            1,
        ));
        index += 1;
        layers.push(Layer::matmul(
            index,
            format!("l{layer}.ffn2"),
            GemmDims::new(d, config.feed_forward, seq),
            1,
        ));
        index += 1;
    }
    let net = Network::new(
        format!("transformer_l{}_d{}_s{}", config.layers, config.hidden, seq),
        layers,
    );
    net.assert_valid();
    net
}

/// BERT-base encoder stack at the given sequence length.
#[must_use]
pub fn bert_base(sequence_length: u64) -> Network {
    transformer_encoder(TransformerConfig::bert_base(sequence_length))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::DepthwiseMapping;

    #[test]
    fn bert_base_has_six_gemms_per_layer() {
        let net = bert_base(128);
        assert_eq!(net.len(), 12 * 6);
        assert_eq!(
            net.layer(1).unwrap().gemm_dims(),
            GemmDims::new(2304, 768, 128)
        );
        assert_eq!(
            net.layer(5).unwrap().gemm_dims(),
            GemmDims::new(3072, 768, 128)
        );
    }

    #[test]
    fn attention_gemms_repeat_per_head() {
        let net = bert_base(64);
        let scores = net.layer(2).unwrap().gemm(DepthwiseMapping::default());
        assert_eq!(scores.repeats, 12);
        assert_eq!(scores.dims, GemmDims::new(64, 64, 64));
    }

    #[test]
    fn total_macs_match_the_analytical_count() {
        // Per layer: qkv (3d*d*s) + scores (s*dh*s*h) + context (dh*s*s*h)
        //          + proj (d*d*s) + ffn (2*d*ff*s).
        let seq = 128u64;
        let d = 768u64;
        let ff = 3072u64;
        let per_layer = 3 * d * d * seq + 2 * seq * seq * d + d * d * seq + 2 * d * ff * seq;
        assert_eq!(bert_base(seq).total_macs(), 12 * per_layer);
    }

    #[test]
    fn longer_sequences_scale_the_work() {
        assert!(bert_base(512).total_macs() > bert_base(128).total_macs());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_head_counts_are_rejected() {
        let _ = transformer_encoder(TransformerConfig {
            layers: 1,
            hidden: 100,
            heads: 7,
            feed_forward: 256,
            sequence_length: 16,
        });
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn zero_sequence_length_is_rejected() {
        let _ = bert_base(0);
    }
}
