//! Serializable graph state: the state dict and the topology snapshot.
//!
//! A [`StateDict`] is the flat, ordered list of every persistent tensor in
//! a [`Graph`](crate::graph::Graph) — trainable parameters first, then the
//! non-trainable buffers layers report through
//! [`Layer::export_state`](crate::layer::Layer::export_state) (batch-norm
//! running statistics). Keys are `n{index}.{label}.p{param}` /
//! `n{index}.{label}.{buffer}`, so import can verify it is walking the
//! same graph in the same order instead of silently loading weights into
//! the wrong layer.
//!
//! A [`GraphTopology`] is the wiring snapshot (per-node label, input
//! ids, and terminal node). It cannot rebuild a graph — layers are built
//! by the model constructors in `deepmorph-models` — but it travels with
//! every saved state dict so a loader can prove the freshly built graph
//! matches the one that was saved before importing a single tensor.
//!
//! Both types encode with the `deepmorph-tensor` byte codec, so truncated
//! or corrupted files surface as typed [`CodecError`]s.

use deepmorph_tensor::io::{
    read_tensor, write_tensor, ByteReader, ByteWriter, CodecError, CodecResult,
};
use deepmorph_tensor::Tensor;

/// One named tensor of a [`StateDict`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateEntry {
    /// Stable key: `n{node}.{label}.p{j}` for parameters,
    /// `n{node}.{label}.{name}` for extra layer buffers.
    pub key: String,
    /// The tensor value.
    pub value: Tensor,
}

/// Ordered collection of every persistent tensor in a graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    /// The entries, in graph visit order.
    pub entries: Vec<StateEntry>,
}

impl StateDict {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the dict holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends the dict to a payload.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.entries.len() as u64);
        for entry in &self.entries {
            w.put_str(&entry.key);
            write_tensor(w, &entry.value);
        }
    }

    /// Reads a dict written by [`StateDict::encode`].
    ///
    /// # Errors
    ///
    /// Propagates codec errors (truncation, invalid shapes).
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let n = r.get_len("state dict length")?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let key = r.get_str("state entry key")?;
            let value = read_tensor(r)?;
            entries.push(StateEntry { key, value });
        }
        Ok(StateDict { entries })
    }
}

/// The wiring of one graph node, for topology verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoNode {
    /// The node's label.
    pub label: String,
    /// Input node indexes; `u64::MAX` denotes the graph input.
    pub inputs: Vec<u64>,
}

/// A serializable snapshot of a graph's structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphTopology {
    /// Per-node wiring, in topological order.
    pub nodes: Vec<TopoNode>,
    /// Index of the terminal node.
    pub output: u64,
}

impl GraphTopology {
    /// Appends the topology to a payload.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            w.put_str(&node.label);
            w.put_u64(node.inputs.len() as u64);
            for &input in &node.inputs {
                w.put_u64(input);
            }
        }
        w.put_u64(self.output);
    }

    /// Reads a topology written by [`GraphTopology::encode`].
    ///
    /// # Errors
    ///
    /// Propagates codec errors.
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let n = r.get_len("topology node count")?;
        let mut nodes = Vec::new();
        for _ in 0..n {
            let label = r.get_str("topology label")?;
            let arity = r.get_len("topology arity")?;
            if arity > 8 {
                return Err(CodecError::Invalid {
                    context: format!("topology node arity {arity} is implausible"),
                });
            }
            let mut inputs = Vec::with_capacity(arity);
            for _ in 0..arity {
                inputs.push(r.get_u64("topology input")?);
            }
            nodes.push(TopoNode { label, inputs });
        }
        let output = r.get_u64("topology output")?;
        Ok(GraphTopology { nodes, output })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dict() -> StateDict {
        StateDict {
            entries: vec![
                StateEntry {
                    key: "n0.dense[2->3].p0".into(),
                    value: Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]).unwrap(),
                },
                StateEntry {
                    key: "n0.dense[2->3].p1".into(),
                    value: Tensor::zeros(&[3]),
                },
            ],
        }
    }

    #[test]
    fn state_dict_round_trips() {
        let dict = sample_dict();
        let mut w = ByteWriter::new();
        dict.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = StateDict::decode(&mut r).unwrap();
        assert_eq!(back, dict);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_dict_is_typed() {
        let dict = sample_dict();
        let mut w = ByteWriter::new();
        dict.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(
            StateDict::decode(&mut r).unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn topology_round_trips() {
        let topo = GraphTopology {
            nodes: vec![
                TopoNode {
                    label: "conv1".into(),
                    inputs: vec![u64::MAX],
                },
                TopoNode {
                    label: "add".into(),
                    inputs: vec![0, u64::MAX],
                },
            ],
            output: 1,
        };
        let mut w = ByteWriter::new();
        topo.encode(&mut w);
        let bytes = w.into_bytes();
        let back = GraphTopology::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, topo);
    }
}
