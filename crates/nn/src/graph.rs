//! DAG graph executor with reverse-mode differentiation.
//!
//! Networks are built with [`GraphBuilder`]: nodes are added in topological
//! order (each node may only reference earlier nodes or the graph input),
//! which makes forward execution a single in-order sweep and backward a
//! single reverse sweep — no scheduling required.
//!
//! The executor also exposes [`Graph::forward_collect`], which returns the
//! activations of caller-selected nodes alongside the output. DeepMorph
//! uses this to extract the *data flow footprints* (intermediate outputs of
//! hidden layers) that the paper's analysis is built on.

use deepmorph_tensor::backend::quant::Precision;
use deepmorph_tensor::{workspace, Tensor};

use crate::layer::{Layer, Mode, Param};
use crate::state::{GraphTopology, StateDict, StateEntry, TopoNode};
use crate::{NnError, Result};

/// Identifier of a node in a [`Graph`] (or the graph input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Sentinel referring to the graph's input tensor.
    pub const SOURCE: NodeId = NodeId(usize::MAX);

    /// The raw index (source returns `usize::MAX`).
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` if this id refers to the graph input.
    pub fn is_source(self) -> bool {
        self == NodeId::SOURCE
    }
}

struct Node {
    layer: Box<dyn Layer>,
    inputs: Vec<NodeId>,
    label: String,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("label", &self.label)
            .field("inputs", &self.inputs)
            .finish()
    }
}

/// Incrementally builds a [`Graph`] in topological order.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder { nodes: Vec::new() }
    }

    /// The id of the graph input tensor.
    pub fn input(&self) -> NodeId {
        NodeId::SOURCE
    }

    /// Adds a layer consuming `inputs`, returning the new node's id.
    ///
    /// The node's label defaults to the layer name; use
    /// [`GraphBuilder::add_labeled`] to override.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] if an input refers to a node that
    /// does not exist yet (graphs must be built in topological order) and
    /// [`NnError::ArityMismatch`] if the input count disagrees with the
    /// layer's arity.
    pub fn add_layer(&mut self, layer: impl Layer + 'static, inputs: &[NodeId]) -> Result<NodeId> {
        let label = layer.name().to_string();
        self.add_labeled(layer, inputs, &label)
    }

    /// Adds a layer with an explicit label (used in probe/footprint reports).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_layer`].
    pub fn add_labeled(
        &mut self,
        layer: impl Layer + 'static,
        inputs: &[NodeId],
        label: &str,
    ) -> Result<NodeId> {
        if inputs.len() != layer.arity() {
            return Err(NnError::ArityMismatch {
                layer: layer.name().to_string(),
                expected: layer.arity(),
                actual: inputs.len(),
            });
        }
        for &input in inputs {
            if !input.is_source() && input.0 >= self.nodes.len() {
                return Err(NnError::InvalidNode {
                    id: input.0,
                    reason: "input node does not exist yet (topological order required)",
                });
            }
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            layer: Box::new(layer),
            inputs: inputs.to_vec(),
            label: label.to_string(),
        });
        Ok(id)
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes the graph with `output` as the terminal node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] if `output` does not exist or is
    /// the source.
    pub fn build(self, output: NodeId) -> Result<Graph> {
        if output.is_source() || output.0 >= self.nodes.len() {
            return Err(NnError::InvalidNode {
                id: output.0,
                reason: "output node does not exist",
            });
        }
        Ok(Graph {
            nodes: self.nodes,
            output,
            slots: Vec::new(),
            grad_slots: Vec::new(),
            ready: false,
            precision: Precision::F32,
        })
    }
}

/// A feed-forward computation DAG over a single input tensor.
///
/// The executor owns two persistent slot vectors (activations during the
/// forward sweep, gradients during backward) and recycles every retired
/// tensor into the thread's workspace arena, so a warm train step drives
/// the whole graph without heap allocations beyond what individual layers
/// need.
#[derive(Debug)]
pub struct Graph {
    nodes: Vec<Node>,
    output: NodeId,
    /// Reusable activation slots for the current forward sweep.
    slots: Vec<Option<Tensor>>,
    /// Reusable gradient slots for the backward sweep.
    grad_slots: Vec<Option<Tensor>>,
    /// Set by a training-mode forward; gates [`Graph::backward`].
    ready: bool,
    /// Serving precision the layers were last prepared at.
    precision: Precision,
}

impl Graph {
    /// Runs the graph and returns the output of the terminal node.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let (out, _) = self.forward_collect(x, mode, &[])?;
        Ok(out)
    }

    /// Inference entry point for serving replicas: an eval-mode forward
    /// that is guaranteed to leave no backward state behind.
    ///
    /// Numerically identical (bitwise) to `forward(x, Mode::Eval)` — and,
    /// because every layer computes each batch row independently in eval
    /// mode, the rows of a coalesced batch are bitwise identical to the
    /// same inputs run one at a time. On top of the eval forward this
    /// clears the `ready` latch a previous *training* forward may have
    /// left set, so a stray [`Graph::backward`] on a serving replica is a
    /// typed [`NnError::MissingActivation`] instead of silently consuming
    /// stale caches.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_inference(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = self.forward(x, Mode::Eval)?;
        self.ready = false;
        Ok(out)
    }

    /// Runs the graph, additionally returning the activations of `collect`
    /// (in the same order). This is the footprint-extraction entry point.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidNode`] for unknown ids in `collect`, and
    /// propagates layer errors.
    pub fn forward_collect(
        &mut self,
        x: &Tensor,
        mode: Mode,
        collect: &[NodeId],
    ) -> Result<(Tensor, Vec<Tensor>)> {
        for &id in collect {
            if id.is_source() || id.0 >= self.nodes.len() {
                return Err(NnError::InvalidNode {
                    id: id.0,
                    reason: "collect node does not exist",
                });
            }
        }
        // Recycle anything a previous (possibly aborted) sweep left behind
        // and make sure one slot exists per node.
        for slot in &mut self.slots {
            workspace::recycle_opt(slot.take());
        }
        self.slots.resize_with(self.nodes.len(), || None);

        let Graph { nodes, slots, .. } = &mut *self;
        for idx in 0..nodes.len() {
            let Node { layer, inputs, .. } = &mut nodes[idx];
            let resolve = |id: &NodeId| -> Result<&Tensor> {
                if id.is_source() {
                    Ok(x)
                } else {
                    slots[id.0].as_ref().ok_or(NnError::InvalidNode {
                        id: id.0,
                        reason: "input activation missing (cycle?)",
                    })
                }
            };
            // Arity is ≤ 2 for every layer in this workspace; resolve into
            // an inline buffer (no per-node Vec), with a heap fallback for
            // hypothetical wider layers.
            let mut inline: [&Tensor; 2] = [x, x];
            let spill: Vec<&Tensor>;
            let input_refs: &[&Tensor] = if inputs.len() <= inline.len() {
                for (slot, id) in inline.iter_mut().zip(inputs.iter()) {
                    *slot = resolve(id)?;
                }
                &inline[..inputs.len()]
            } else {
                spill = inputs.iter().map(resolve).collect::<Result<_>>()?;
                &spill
            };
            let out = layer.forward(input_refs, mode)?;
            slots[idx] = Some(out);
        }
        let collected = collect
            .iter()
            .map(|id| {
                self.slots[id.0]
                    .as_ref()
                    .expect("validated above")
                    .pooled_clone()
            })
            .collect();
        let final_out = self.slots[self.output.0].take().expect("output computed");
        // The sweep is over: every remaining activation is dead, so it
        // goes straight back to the arena (layers keep their own caches).
        for slot in &mut self.slots {
            workspace::recycle_opt(slot.take());
        }
        if mode == Mode::Train {
            self.ready = true;
        }
        Ok((final_out, collected))
    }

    /// Backpropagates `grad` (w.r.t. the terminal node's output),
    /// accumulating parameter gradients in every layer.
    ///
    /// Must follow a training-mode forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingActivation`] if no training forward has
    /// been run.
    pub fn backward(&mut self, grad: &Tensor) -> Result<()> {
        if !self.ready {
            return Err(NnError::MissingActivation {
                layer: "graph".into(),
            });
        }
        for slot in &mut self.grad_slots {
            workspace::recycle_opt(slot.take());
        }
        self.grad_slots.resize_with(self.nodes.len(), || None);
        self.grad_slots[self.output.0] = Some(grad.pooled_clone());
        let Graph {
            nodes, grad_slots, ..
        } = &mut *self;
        for idx in (0..nodes.len()).rev() {
            let Some(g) = grad_slots[idx].take() else {
                continue; // node does not influence the output
            };
            let node = &mut nodes[idx];
            let input_grads = node.layer.backward(&g)?;
            workspace::recycle_tensor(g);
            debug_assert_eq!(input_grads.len(), node.inputs.len());
            for (id, ig) in node.inputs.iter().zip(input_grads) {
                if id.is_source() {
                    // Gradients w.r.t. the data are not needed.
                    workspace::recycle_tensor(ig);
                    continue;
                }
                match &mut grad_slots[id.0] {
                    Some(existing) => {
                        existing.add_assign_tensor(&ig)?;
                        workspace::recycle_tensor(ig);
                    }
                    slot @ None => *slot = Some(ig),
                }
            }
        }
        Ok(())
    }

    /// Prepares every layer to serve at `precision` (see
    /// [`Layer::apply_precision`]): at [`Precision::F32`] dense and conv
    /// weights are packed once for the GEMM and outputs stay bitwise
    /// equal; at [`Precision::I8`] the change is lossy and irreversible.
    /// Serving replicas call this once after instantiation; training and
    /// diagnosis graphs never do.
    ///
    /// # Errors
    ///
    /// Propagates the first layer rejection (no provided layer rejects).
    pub fn apply_precision(&mut self, precision: Precision) -> Result<()> {
        for node in &mut self.nodes {
            node.layer.apply_precision(precision)?;
        }
        self.precision = precision;
        Ok(())
    }

    /// The precision the layers were last prepared at
    /// ([`Precision::F32`] for a graph never touched by
    /// [`Graph::apply_precision`]).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Visits every trainable parameter in a stable order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for node in &mut self.nodes {
            node.layer.visit_params(visitor);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut Param::zero_grad);
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.len());
        count
    }

    /// Number of nodes (layers) in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a graph with no nodes (cannot be constructed normally).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids and labels of every node, in topological order.
    pub fn node_labels(&self) -> Vec<(NodeId, &str)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i), n.label.as_str()))
            .collect()
    }

    /// Snapshots the graph wiring (labels, input edges, terminal node) for
    /// serialization alongside a [`StateDict`]. A loader compares this
    /// against the freshly built graph's topology before importing state.
    pub fn topology(&self) -> GraphTopology {
        GraphTopology {
            nodes: self
                .nodes
                .iter()
                .map(|n| TopoNode {
                    label: n.label.clone(),
                    inputs: n
                        .inputs
                        .iter()
                        .map(|id| {
                            if id.is_source() {
                                u64::MAX
                            } else {
                                id.0 as u64
                            }
                        })
                        .collect(),
                })
                .collect(),
            output: self.output.0 as u64,
        }
    }

    /// Exports every persistent tensor — trainable parameters and the
    /// extra buffers layers report via
    /// [`Layer::export_state`] — as an
    /// ordered, keyed [`StateDict`]. The walk order is the node order, so
    /// it is stable for a given architecture.
    pub fn export_state(&mut self) -> StateDict {
        let mut entries = Vec::new();
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            let label = node.label.clone();
            let mut j = 0usize;
            node.layer.visit_params(&mut |p| {
                entries.push(StateEntry {
                    key: format!("n{idx}.{label}.p{j}"),
                    value: p.value.clone(),
                });
                j += 1;
            });
            for (name, values) in node.layer.export_state() {
                let len = values.len();
                entries.push(StateEntry {
                    key: format!("n{idx}.{label}.{name}"),
                    value: Tensor::from_vec(values, &[len]).expect("rank-1 buffer"),
                });
            }
        }
        StateDict { entries }
    }

    /// Imports a [`StateDict`] produced by [`Graph::export_state`] on a
    /// structurally identical graph. Every key, shape, and buffer length
    /// is verified before any tensor is copied, so a key/shape/count
    /// mismatch leaves the graph's parameters untouched. (A layer whose
    /// [`Layer::import_state`] rejects entries its own `export_state`
    /// format accepts can still fail mid-copy; no such layer exists in
    /// this workspace.)
    ///
    /// # Errors
    ///
    /// Returns [`NnError::StateMismatch`] on any key, shape, or count
    /// disagreement.
    pub fn import_state(&mut self, dict: &StateDict) -> Result<()> {
        // Pass 1: verify the full walk against the dict.
        let mut cursor = 0usize;
        let mismatch = |reason: String| NnError::StateMismatch { reason };
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            let label = node.label.clone();
            let mut j = 0usize;
            let mut first_err: Option<NnError> = None;
            node.layer.visit_params(&mut |p| {
                let key = format!("n{idx}.{label}.p{j}");
                match dict.entries.get(cursor) {
                    Some(entry) if entry.key == key && entry.value.shape() == p.value.shape() => {}
                    Some(entry) if entry.key == key => {
                        first_err.get_or_insert(NnError::StateMismatch {
                            reason: format!(
                                "`{key}` has shape {:?}, graph expects {:?}",
                                entry.value.shape(),
                                p.value.shape()
                            ),
                        });
                    }
                    Some(entry) => {
                        first_err.get_or_insert(NnError::StateMismatch {
                            reason: format!("expected key `{key}`, found `{}`", entry.key),
                        });
                    }
                    None => {
                        first_err.get_or_insert(NnError::StateMismatch {
                            reason: format!("state dict ends before `{key}`"),
                        });
                    }
                }
                cursor += 1;
                j += 1;
            });
            if let Some(e) = first_err {
                return Err(e);
            }
            for (name, values) in node.layer.export_state() {
                let key = format!("n{idx}.{label}.{name}");
                match dict.entries.get(cursor) {
                    Some(entry) if entry.key == key && entry.value.len() == values.len() => {}
                    Some(entry) if entry.key == key => {
                        return Err(mismatch(format!(
                            "`{key}` has {} values, layer expects {}",
                            entry.value.len(),
                            values.len()
                        )));
                    }
                    Some(entry) => {
                        return Err(mismatch(format!(
                            "expected key `{key}`, found `{}`",
                            entry.key
                        )));
                    }
                    None => return Err(mismatch(format!("state dict ends before `{key}`"))),
                }
                cursor += 1;
            }
        }
        if cursor != dict.entries.len() {
            return Err(mismatch(format!(
                "state dict has {} entries, graph consumes {cursor}",
                dict.entries.len()
            )));
        }

        // Pass 2: copy. Every entry is pre-verified against the walk, so
        // this cannot fail halfway. Buffer names come from the layer's own
        // `export_state` (the authority pass 1 verified the keys against),
        // not from re-parsing the key strings — a label containing '.'
        // cannot mangle them.
        let mut cursor = 0usize;
        for node in &mut self.nodes {
            node.layer.visit_params(&mut |p| {
                let entry = &dict.entries[cursor];
                p.value
                    .copy_from(&entry.value)
                    .expect("shape verified in pass 1");
                cursor += 1;
            });
            let buffer_names: Vec<String> = node
                .layer
                .export_state()
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            if !buffer_names.is_empty() {
                let extra: Vec<(String, Vec<f32>)> = buffer_names
                    .into_iter()
                    .zip(&dict.entries[cursor..])
                    .map(|(name, e)| {
                        cursor += 1;
                        (name, e.value.data().to_vec())
                    })
                    .collect();
                node.layer.import_state(&extra)?;
            }
        }
        Ok(())
    }

    /// Drops cached activations in the graph and all layers (recycling
    /// them through the workspace arena).
    pub fn clear_caches(&mut self) {
        for slot in &mut self.slots {
            workspace::recycle_opt(slot.take());
        }
        for slot in &mut self.grad_slots {
            workspace::recycle_opt(slot.take());
        }
        self.ready = false;
        for node in &mut self.nodes {
            node.layer.clear_cache();
        }
    }

    /// Convenience: eval-mode forward returning the predicted class of each
    /// row of the output logits.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; the output must be rank 2.
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(x, Mode::Eval)?;
        let preds = logits.argmax_rows()?;
        workspace::recycle_tensor(logits);
        Ok(preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ReLU;
    use crate::dense::Dense;
    use crate::merge::Add;
    use deepmorph_tensor::init::stream_rng;

    fn linear_graph() -> Graph {
        let mut rng = stream_rng(1, "graph");
        let mut gb = GraphBuilder::new();
        let x = gb.input();
        let a = gb.add_layer(Dense::new(3, 4, &mut rng), &[x]).unwrap();
        let r = gb.add_layer(ReLU::new(), &[a]).unwrap();
        let b = gb.add_layer(Dense::new(4, 2, &mut rng), &[r]).unwrap();
        gb.build(b).unwrap()
    }

    #[test]
    fn forward_produces_output_shape() {
        let mut g = linear_graph();
        let x = Tensor::ones(&[5, 3]);
        let y = g.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[5, 2]);
    }

    #[test]
    fn forward_collect_returns_intermediates() {
        let mut g = linear_graph();
        let x = Tensor::ones(&[2, 3]);
        let ids: Vec<NodeId> = g.node_labels().iter().map(|(id, _)| *id).collect();
        let (_, collected) = g.forward_collect(&x, Mode::Eval, &ids).unwrap();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0].shape(), &[2, 4]);
        assert_eq!(collected[2].shape(), &[2, 2]);
    }

    #[test]
    fn collect_rejects_unknown_node() {
        let mut g = linear_graph();
        let x = Tensor::ones(&[1, 3]);
        let bogus = NodeId(99);
        assert!(g.forward_collect(&x, Mode::Eval, &[bogus]).is_err());
    }

    #[test]
    fn builder_rejects_forward_reference() {
        let mut rng = stream_rng(2, "graph");
        let mut gb = GraphBuilder::new();
        let err = gb
            .add_layer(Dense::new(2, 2, &mut rng), &[NodeId(5)])
            .unwrap_err();
        assert!(matches!(err, NnError::InvalidNode { .. }));
    }

    #[test]
    fn builder_rejects_wrong_arity() {
        let mut gb = GraphBuilder::new();
        let x = gb.input();
        let err = gb.add_layer(Add::new(), &[x]).unwrap_err();
        assert!(matches!(err, NnError::ArityMismatch { .. }));
    }

    #[test]
    fn build_rejects_source_output() {
        let gb = GraphBuilder::new();
        assert!(gb.build(NodeId::SOURCE).is_err());
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut g = linear_graph();
        let grad = Tensor::ones(&[1, 2]);
        assert!(g.backward(&grad).is_err());
    }

    #[test]
    fn forward_inference_matches_eval_and_disarms_backward() {
        let mut g = linear_graph();
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.4, 0.1, -0.6], &[2, 3]).unwrap();
        let eval = g.forward(&x, Mode::Eval).unwrap();
        let inf = g.forward_inference(&x).unwrap();
        for (a, b) in eval.data().iter().zip(inf.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A training forward arms backward; an interleaved inference
        // forward must disarm it again (serving replicas never train).
        let _ = g.forward(&x, Mode::Train).unwrap();
        let _ = g.forward_inference(&x).unwrap();
        assert!(matches!(
            g.backward(&Tensor::ones(&[2, 2])).unwrap_err(),
            NnError::MissingActivation { .. }
        ));
    }

    #[test]
    fn batched_inference_rows_match_solo_rows_bitwise() {
        // The scheduler's micro-batching contract at the graph level: row
        // i of a batched eval forward equals the same input run alone.
        let mut g = linear_graph();
        let data: Vec<f32> = (0..4 * 3)
            .map(|i| ((i * 29) % 13) as f32 * 0.11 - 0.7)
            .collect();
        let batch = Tensor::from_vec(data.clone(), &[4, 3]).unwrap();
        let batched = g.forward_inference(&batch).unwrap();
        for i in 0..4 {
            let solo_in = Tensor::from_vec(data[i * 3..(i + 1) * 3].to_vec(), &[1, 3]).unwrap();
            let solo = g.forward_inference(&solo_in).unwrap();
            for (a, b) in batched.row(i).unwrap().iter().zip(solo.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged");
            }
        }
    }

    #[test]
    fn residual_graph_accumulates_gradients() {
        // y = relu(x W1) + x W2 ; check both branches receive gradient.
        let mut rng = stream_rng(3, "graph");
        let mut gb = GraphBuilder::new();
        let x = gb.input();
        let a = gb.add_layer(Dense::new(3, 3, &mut rng), &[x]).unwrap();
        let r = gb.add_layer(ReLU::new(), &[a]).unwrap();
        let b = gb.add_layer(Dense::new(3, 3, &mut rng), &[x]).unwrap();
        let s = gb.add_layer(Add::new(), &[r, b]).unwrap();
        let mut g = gb.build(s).unwrap();

        let input = Tensor::ones(&[2, 3]);
        let _ = g.forward(&input, Mode::Train).unwrap();
        g.zero_grad();
        g.backward(&Tensor::ones(&[2, 3])).unwrap();

        let mut nonzero_params = 0;
        g.visit_params(&mut |p| {
            if p.grad.data().iter().any(|&v| v != 0.0) {
                nonzero_params += 1;
            }
        });
        // Both dense layers (weight+bias each) should have gradients.
        assert_eq!(nonzero_params, 4);
    }

    #[test]
    fn shared_input_fanout_sums_gradients() {
        // y = (x W) + (x W') where both consume the same intermediate node.
        let mut rng = stream_rng(4, "graph");
        let mut gb = GraphBuilder::new();
        let x = gb.input();
        let h = gb.add_layer(Dense::new(2, 2, &mut rng), &[x]).unwrap();
        let a = gb.add_layer(Dense::new(2, 2, &mut rng), &[h]).unwrap();
        let b = gb.add_layer(Dense::new(2, 2, &mut rng), &[h]).unwrap();
        let s = gb.add_layer(Add::new(), &[a, b]).unwrap();
        let mut g = gb.build(s).unwrap();

        let input = Tensor::from_vec(vec![0.3, -0.6, 0.9, 0.1], &[2, 2]).unwrap();
        let _ = g.forward(&input, Mode::Train).unwrap();
        g.zero_grad();
        g.backward(&Tensor::ones(&[2, 2])).unwrap();

        // Gradient check on the first dense layer's weights: the fan-out
        // means its gradient is the sum of both downstream paths.
        let mut grads = Vec::new();
        g.visit_params(&mut |p| grads.push(p.clone()));
        let w0 = grads[0].clone();

        let eps = 1e-2;
        for i in 0..w0.value.len() {
            let perturb = |delta: f32, g: &mut Graph| {
                let mut j = 0;
                g.visit_params(&mut |p| {
                    if j == 0 {
                        p.value.data_mut()[i] += delta;
                    }
                    j += 1;
                });
            };
            perturb(eps, &mut g);
            let yp = g.forward(&input, Mode::Eval).unwrap().sum();
            perturb(-2.0 * eps, &mut g);
            let ym = g.forward(&input, Mode::Eval).unwrap().sum();
            perturb(eps, &mut g);
            let num = (yp - ym) / (2.0 * eps);
            let ana = w0.grad.data()[i];
            assert!(
                (num - ana).abs() < 0.05,
                "param {i}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn state_dict_round_trips_through_a_fresh_graph() {
        let mut g = linear_graph();
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.4, 0.1, -0.6], &[2, 3]).unwrap();
        let y_before = g.forward(&x, Mode::Eval).unwrap();
        let dict = g.export_state();
        assert_eq!(dict.len(), 4); // two dense layers × (weight, bias)

        // A differently seeded twin must reproduce the original exactly
        // after import.
        let mut rng = stream_rng(99, "graph");
        let mut gb = GraphBuilder::new();
        let xin = gb.input();
        let a = gb.add_layer(Dense::new(3, 4, &mut rng), &[xin]).unwrap();
        let r = gb.add_layer(ReLU::new(), &[a]).unwrap();
        let b = gb.add_layer(Dense::new(4, 2, &mut rng), &[r]).unwrap();
        let mut twin = gb.build(b).unwrap();
        twin.import_state(&dict).unwrap();
        let y_after = twin.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y_before.data(), y_after.data());
        assert_eq!(g.topology(), twin.topology());
    }

    #[test]
    fn import_rejects_mismatched_dicts() {
        let mut g = linear_graph();
        let mut dict = g.export_state();

        // Wrong shape.
        let mut bad_shape = dict.clone();
        bad_shape.entries[0].value = Tensor::zeros(&[2, 2]);
        assert!(matches!(
            g.import_state(&bad_shape).unwrap_err(),
            NnError::StateMismatch { .. }
        ));

        // Wrong key.
        let mut bad_key = dict.clone();
        bad_key.entries[1].key = "n9.bogus.p0".into();
        assert!(matches!(
            g.import_state(&bad_key).unwrap_err(),
            NnError::StateMismatch { .. }
        ));

        // Truncated dict.
        dict.entries.pop();
        assert!(matches!(
            g.import_state(&dict).unwrap_err(),
            NnError::StateMismatch { .. }
        ));
    }

    #[test]
    fn batchnorm_running_stats_round_trip() {
        use crate::norm::BatchNorm2d;
        let mut gb = GraphBuilder::new();
        let x = gb.input();
        let bn = gb.add_layer(BatchNorm2d::new(2), &[x]).unwrap();
        let mut g = gb.build(bn).unwrap();

        // Drive the running statistics away from their init values.
        let input = Tensor::from_vec(
            (0..16).map(|v| (v as f32 * 0.7).sin() * 3.0).collect(),
            &[2, 2, 2, 2],
        )
        .unwrap();
        for _ in 0..5 {
            let _ = g.forward(&input, Mode::Train).unwrap();
        }
        let y_before = g.forward(&input, Mode::Eval).unwrap();
        let dict = g.export_state();
        // gamma, beta, running_mean, running_var.
        assert_eq!(dict.len(), 4);

        let mut gb = GraphBuilder::new();
        let x = gb.input();
        let bn = gb.add_layer(BatchNorm2d::new(2), &[x]).unwrap();
        let mut twin = gb.build(bn).unwrap();
        twin.import_state(&dict).unwrap();
        let y_after = twin.forward(&input, Mode::Eval).unwrap();
        assert_eq!(y_before.data(), y_after.data());
    }

    #[test]
    fn apply_precision_round_trips_the_flag_and_degrades_gracefully() {
        use deepmorph_tensor::backend::quant::Precision;
        let mut g = linear_graph();
        assert_eq!(g.precision(), Precision::F32);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.4, 0.1, -0.6], &[2, 3]).unwrap();
        let exact = g.forward(&x, Mode::Eval).unwrap();
        g.apply_precision(Precision::I8).unwrap();
        assert_eq!(g.precision(), Precision::I8);
        let lossy = g.forward(&x, Mode::Eval).unwrap();
        for (a, b) in lossy.data().iter().zip(exact.data()) {
            assert!((a - b).abs() < 0.1, "i8 output {a} strayed from f32 {b}");
        }
    }

    #[test]
    fn labels_are_reported_in_order() {
        let g = linear_graph();
        let labels = g.node_labels();
        assert_eq!(labels.len(), 3);
        assert!(labels[0].1.starts_with("dense"));
        assert_eq!(labels[1].1, "relu");
    }
}
