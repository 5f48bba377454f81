//! From spans to the layer × workload self-time matrix.

use std::collections::BTreeMap;

use crate::trace::{self_times, Layer, Span, NO_SPAN};

/// Where a traced pass spent its time.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time per layer, replays folded in (see [`attribute`]).
    pub layer_ns: BTreeMap<Layer, u64>,
    /// Sum of the ops' root spans.
    pub op_ns: u64,
    /// Calls per (layer, span name) inside ops, replays excluded.
    pub calls: BTreeMap<(Layer, &'static str), u64>,
}

impl Attribution {
    /// A layer's share of op time.
    pub fn share(&self, layer: Layer) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.layer_ns.get(&layer).copied().unwrap_or(0) as f64 / self.op_ns as f64
    }

    /// The share of op time some layer's span accounts for: everything
    /// but the root spans' own self time.
    pub fn coverage(&self) -> f64 {
        1.0 - self.share(Layer::Harness)
    }

    pub fn calls(&self, layer: Layer, name: &'static str) -> u64 {
        self.calls.get(&(layer, name)).copied().unwrap_or(0)
    }
}

/// Sums self time per layer over the ops' span trees.
///
/// A replay repeats, beside the op, a public call the program made
/// internally (the scalar algorithm inside `Engine::run`, `plan_costed`
/// inside `Garlic::top_k`). Its root's self time is what that call
/// spends below the boundary the harness could see, so it is moved
/// from `refined` — the layer whose span hid it — to the replay root's
/// own layer. The replay's children repeat calls the op's own tree
/// already holds and are dropped.
pub fn attribute(spans: &[Span], refined: Option<Layer>) -> Attribution {
    let selfs = self_times(spans);
    // Parents open before their children, so ids ascend down a tree.
    let max_id = spans
        .iter()
        .map(|s| s.id)
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut in_replay = vec![false; max_id];
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].id);
    for &i in &order {
        let s = &spans[i];
        let inherited =
            s.parent != NO_SPAN && in_replay.get(s.parent as usize).copied().unwrap_or(false);
        in_replay[s.id as usize] = s.replay || inherited;
    }

    let mut out = Attribution::default();
    let mut moved = 0u64;
    for (s, &own) in spans.iter().zip(&selfs) {
        if s.replay {
            *out.layer_ns.entry(s.layer).or_default() += own;
            moved += own;
        } else if !in_replay[s.id as usize] {
            *out.layer_ns.entry(s.layer).or_default() += own;
            *out.calls.entry((s.layer, s.name)).or_default() += s.calls;
            if s.layer == Layer::Harness && s.parent == NO_SPAN {
                out.op_ns += s.end - s.start;
            }
        }
    }
    if let Some(layer) = refined {
        let slot = out.layer_ns.entry(layer).or_default();
        *slot = slot.saturating_sub(moved);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start: u64, end: u64, replay: bool) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer,
            name: "t",
            thread: 0,
            start,
            end,
            replay,
            calls: 1,
            folded_busy: None,
        }
    }

    #[test]
    fn replay_roots_refine_the_layer_that_hid_them() {
        let spans = vec![
            // The op: 100 ns, of which the engine span covers 90 and
            // source calls 30 of those.
            span(0, NO_SPAN, Layer::Harness, 0, 100, false),
            span(1, 0, Layer::Engine, 5, 95, false),
            span(2, 1, Layer::Source, 10, 40, false),
            // The replay: the scalar algorithm, 50 ns with the same 30
            // ns of source calls below it.
            span(3, NO_SPAN, Layer::Algorithms, 200, 250, true),
            span(4, 3, Layer::Source, 210, 240, false),
        ];
        let a = attribute(&spans, Some(Layer::Engine));
        assert_eq!(a.op_ns, 100);
        assert_eq!(a.layer_ns[&Layer::Harness], 10);
        assert_eq!(a.layer_ns[&Layer::Source], 30);
        assert_eq!(a.layer_ns[&Layer::Algorithms], 20);
        assert_eq!(a.layer_ns[&Layer::Engine], 60 - 20);
        assert_eq!(a.calls(Layer::Source, "t"), 1);
        assert!((a.coverage() - 0.9).abs() < 1e-12);
        let total: u64 = a.layer_ns.values().sum();
        assert_eq!(total, a.op_ns);
    }
}
