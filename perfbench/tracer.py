"""In-memory tracer for the saddleslide benchmark.

The tracer never edits the library. ``install`` swaps the module and class
attributes through which one layer of saddleslide calls the next for timing
wrappers, and ``uninstall`` puts the originals back, so untraced operations
run the library exactly as shipped.

Every wrapped call updates a per-operation aggregate ``[calls, busy, self]``
(seconds), where self time is busy time minus the busy time of wrapped calls
made inside it. Hot inner calls (H, prox, noise, gossip, ``contains``) are
only aggregated. Coarse boundaries (operation, set-up, schedule, solver loop,
back-fill, certify) are also kept as individual spans
``(op_id, name, start, end, parent)``; all of it stays in memory until
``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

OPERATION = "operation"


class Tracer:
    """Call aggregates for the current operation plus spans for all of them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self.pipeline = None
        self._stack: list[list] = []
        self._op_id = -1
        self._saved: list[tuple] = []

    # -- frames ---------------------------------------------------------------

    def _enter(self, name: str, span: bool) -> None:
        idx = -1
        if span:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            idx = len(self.spans)
            self.spans.append([self._op_id, name, 0.0, 0.0, parent])
        self._stack.append([name, time.perf_counter(), 0.0, idx])

    def _leave(self) -> None:
        t1 = time.perf_counter()
        name, t0, child, idx = self._stack.pop()
        busy = t1 - t0
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += busy
        st[2] += busy - child
        if self._stack:
            self._stack[-1][2] += busy
        if idx >= 0:
            self.spans[idx][2] = t0
            self.spans[idx][3] = t1

    def wrap(self, name: str, fn, span: bool = False):
        enter, leave = self._enter, self._leave

        def wrapped(*args, **kwargs):
            enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        wrapped.__wrapped__ = fn
        return wrapped

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; resets the aggregates."""
        self._op_id = op_id
        self.stats = {}
        self.pipeline = None
        self._enter(OPERATION, True)
        try:
            yield self
        finally:
            # the back-fill span opened at solver return ends with the operation
            while self._stack[-1][0] != OPERATION:
                self._leave()
            self._leave()

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap saddleslide's layer boundaries; see the module docstring."""
        from saddleslide import geometry, harness, instances, network, penalty, sliding

        w = self.wrap
        p = self._patch
        orig_build = harness.build_pipeline
        traced_build = w("setup", orig_build, span=True)

        def build_pipeline(config):
            self.pipeline = traced_build(config)
            return self.pipeline

        traced_vi = w("penalty.build", harness.build_penalized_vi)

        def build_penalized_vi(*args, **kwargs):
            vi = traced_vi(*args, **kwargs)
            vi.grad_G = w("penalty.grad_G", vi.grad_G)
            return vi

        orig_oracle = harness.make_stochastic_oracle

        def make_stochastic_oracle(*args, **kwargs):
            return w("harness.noise", orig_oracle(*args, **kwargs))

        def solver(fn):
            traced = w("sliding.loop", fn, span=True)

            def run(*args, **kwargs):
                out = traced(*args, **kwargs)
                self._enter("harness.backfill", True)
                return out

            return run

        p(harness, "build_pipeline", build_pipeline)
        p(harness, "build_topology", w("network.topology", harness.build_topology))
        for attr in ("make_matrix_game", "random_matrix_game", "random_l1_saddle"):
            p(harness, attr, w("instances.build", getattr(harness, attr)))
        p(harness, "operator_bound_L0",
          w("instances.operator_bound", harness.operator_bound_L0))
        p(harness, "penalty_coefficients",
          w("penalty.coefficients", harness.penalty_coefficients))
        p(harness, "build_penalized_vi", build_penalized_vi)
        p(harness, "make_stochastic_oracle", make_stochastic_oracle)
        p(harness, "deterministic_schedule",
          w("sliding.schedule", harness.deterministic_schedule, span=True))
        p(harness, "stochastic_schedule",
          w("sliding.schedule", harness.stochastic_schedule, span=True))
        p(harness, "mps_run", solver(harness.mps_run))
        p(harness, "smps_run", solver(harness.smps_run))
        p(harness, "consensus_violation",
          w("network.consensus", harness.consensus_violation))
        p(harness, "exact_gap_matrix_game",
          w("instances.gap", harness.exact_gap_matrix_game))
        p(harness, "l1_saddle_gap", w("instances.gap", harness.l1_saddle_gap))
        p(instances, "certify_inexact_oracle",
          w("instances.certify", instances.certify_inexact_oracle, span=True))
        p(sliding, "_prox_kernel", w("geometry.prox", sliding._prox_kernel))
        p(sliding.SlidingSchedule, "validate",
          w("sliding.validate", sliding.SlidingSchedule.validate))
        p(geometry.ProductSet, "contains",
          w("geometry.contains", geometry.ProductSet.contains))
        p(penalty.StackedSPP, "H", w("penalty.H", penalty.StackedSPP.H))
        p(network.NetworkModel, "block_product",
          w("network.gossip", network.NetworkModel.block_product))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        keys = ("op_id", "name", "start", "end", "parent")
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")
