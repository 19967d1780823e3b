"""In-memory span recorder and the layer wrappers of the traced run.

Wrappers are installed from outside the program: each public function of a
``fidest`` module is replaced with ``setattr`` by a wrapper that records a
span (name, start, end, parent, op id). Calls inside a module resolve through
the module's globals, so they pass through the wrappers too. ``linprog`` is
wrapped on ``scipy.optimize`` before ``fidest`` is imported, so HiGHS is
counted whether ``general`` imports it at module level or lazily.

A public name that no longer exists is skipped: its spans count 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

# Public names wrapped per module; a span is named "<layer>.<function>".
# scipy's linprog, the boundary to HiGHS, is recorded as HIGHS_SPAN.
WRAPPED = {
    "fidest.qcore": [
        "check_state", "check_density_operator", "check_effect",
        "check_outcome_distribution", "hermitian_eigensystem",
        "haar_random_state", "haar_random_states", "haar_random_unitary",
        "matrix_to_json", "matrix_from_json", "save_matrix", "load_matrix",
    ],
    "fidest.symmetry": [
        "symmetric_embedding", "embed_state_power", "collective_generators",
        "isotypic_projectors", "decomposition_to_json",
        "decomposition_from_json",
    ],
    "fidest.general": [
        "make_instance", "beta_polynomials", "beta_for_angle",
        "target_distribution", "solve_minimax", "error_profile",
    ],
    "fidest.nogo": [
        "theorem_one_check", "forcing_check", "vote_probability",
        "certificate_to_json", "ViolationCertificate.verify",
    ],
    "fidest.approx": [
        "optimize_invariant_test", "delta_numeric", "partial_info_check",
    ],
    "fidest.witness": ["construct_witness"],
    "fidest.cli": [
        "main", "cmd_witness", "cmd_optimal_test", "cmd_nogo", "cmd_general",
    ],
}

HIGHS_SPAN = "general.highs"

CHECK_SPANS = ("qcore.check_state", "qcore.check_density_operator",
               "qcore.check_effect", "qcore.check_outcome_distribution")
HAAR_SPANS = ("qcore.haar_random_state", "qcore.haar_random_states",
              "qcore.haar_random_unitary")
JSON_SPANS = ("qcore.matrix_to_json", "qcore.matrix_from_json",
              "qcore.save_matrix", "qcore.load_matrix")


class Tracer:
    """Spans of one process, stored column-wise to keep ~10^6 spans small."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        name_id = self._intern(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if on_result is not None:
                on_result(tracer.counters, args, result)
            return result

        setattr(owner, attr, traced)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "counters": dict(self.counters),
        }


def _count_haar(counters, args, result):
    # A state is one Haar vector, a batch is `count` vectors and a unitary
    # is `dim` Haar columns.
    counters["qcore.haar_states"] += result.shape[0] if result.ndim == 2 else 1


def _count_branch(counters, args, result):
    counters["nogo.branch." + str(result.kind)] += 1


def _count_pairs(counters, args, result):
    counters["approx.pairs"] += int(result.trials)


ON_RESULT = {
    "qcore.haar_random_state": _count_haar,
    "qcore.haar_random_states": _count_haar,
    "qcore.haar_random_unitary": _count_haar,
    "nogo.theorem_one_check": _count_branch,
    "approx.partial_info_check": _count_pairs,
}


def install(tracer: Tracer) -> None:
    """Wrap linprog, then import every fidest module and wrap its functions."""
    import scipy.optimize

    tracer.wrap(scipy.optimize, "linprog", HIGHS_SPAN)
    for module_name, attrs in WRAPPED.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        layer = module_name.rsplit(".", 1)[1]
        for path in attrs:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            span = f"{layer}.{attr}"
            tracer.wrap(owner, attr, span, ON_RESULT.get(span))


class SpanSet:
    """Read-only view of the spans of one or more processes."""

    def __init__(self, dumps: list[dict]):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: Counter = Counter()
        ids: dict[str, int] = {}
        for dump in dumps:
            offset = len(self.start)
            remap = []
            for name in dump["names"]:
                if name not in ids:
                    ids[name] = len(self.names)
                    self.names.append(name)
                remap.append(ids[name])
            self.name_id.extend(remap[i] for i in dump["name_id"])
            self.start.extend(dump["start"])
            self.end.extend(dump["end"])
            self.parent.extend(p + offset if p >= 0 else -1
                               for p in dump["parent"])
            self.counters.update(dump["counters"])
        self._by_name: dict[str, list[int]] = {n: [] for n in self.names}
        self._child_s = [0.0] * len(self.start)
        for idx, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            self._by_name[self.names[nid]].append(idx)
            if p >= 0:
                self._child_s[p] += self.end[idx] - self.start[idx]

    def _indices(self, names) -> list[int]:
        return [idx for n in names for idx in self._by_name.get(n, ())]

    def count(self, *names: str) -> int:
        return len(self._indices(names))

    def inclusive_s(self, *names: str) -> float:
        """Wall time covered by spans of the group; a span nested inside
        another span of the same group is not counted twice."""
        group = {i for i, n in enumerate(self.names) if n in names}
        total = 0.0
        for idx in self._indices(names):
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] not in group:
                p = self.parent[p]
            if p < 0:
                total += self.end[idx] - self.start[idx]
        return total

    def self_s(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover."""
        return sum(self.end[i] - self.start[i] - self._child_s[i]
                   for i in self._indices((name,)))


def layer_metrics(spans: SpanSet) -> dict[str, float]:
    """Per-layer metrics of the traced run (milliseconds unless named)."""
    ms = 1000.0
    pic_s = spans.inclusive_s("approx.partial_info_check")
    pairs = spans.counters.get("approx.pairs", 0)
    return {
        "cli.cmd_general_self_ms": spans.self_s("cli.cmd_general") * ms,
        "qcore.json_ms": spans.inclusive_s(*JSON_SPANS) * ms,
        "qcore.json_calls": spans.count(*JSON_SPANS),
        "qcore.eigh_ms": spans.inclusive_s("qcore.hermitian_eigensystem") * ms,
        "qcore.haar_ms": spans.inclusive_s(*HAAR_SPANS) * ms,
        "qcore.haar_states": spans.counters.get("qcore.haar_states", 0),
        "qcore.check_ms": spans.inclusive_s(*CHECK_SPANS) * ms,
        "qcore.check_calls": spans.count(*CHECK_SPANS),
        "symmetry.isotypic_projectors_ms":
            spans.inclusive_s("symmetry.isotypic_projectors") * ms,
        "symmetry.symmetric_embedding_ms":
            spans.inclusive_s("symmetry.symmetric_embedding") * ms,
        "symmetry.collective_generators_ms":
            spans.inclusive_s("symmetry.collective_generators") * ms,
        "symmetry.embed_state_power.calls":
            spans.count("symmetry.embed_state_power"),
        "symmetry.embed_state_power_ms":
            spans.inclusive_s("symmetry.embed_state_power") * ms,
        "general.lp_solves": spans.count(HIGHS_SPAN),
        "general.highs_ms": spans.inclusive_s(HIGHS_SPAN) * ms,
        "general.target_distribution.calls":
            spans.count("general.target_distribution"),
        "general.target_distribution_ms":
            spans.inclusive_s("general.target_distribution") * ms,
        "general.solve_self_ms": spans.self_s("general.solve_minimax") * ms,
        "general.beta_polynomials_ms":
            spans.inclusive_s("general.beta_polynomials") * ms,
        "general.beta_for_angle.calls": spans.count("general.beta_for_angle"),
        "general.error_profile_ms":
            spans.inclusive_s("general.error_profile") * ms,
        "nogo.theorem_one_check_ms":
            spans.inclusive_s("nogo.theorem_one_check") * ms,
        "nogo.verify_ms": spans.inclusive_s("nogo.verify") * ms,
        "nogo.branch.equal_pair_fails":
            spans.counters.get("nogo.branch.equal_pair_fails", 0),
        "nogo.branch.orthogonal_pair_fails":
            spans.counters.get("nogo.branch.orthogonal_pair_fails", 0),
        "nogo.forcing_check_ms": spans.inclusive_s("nogo.forcing_check") * ms,
        "nogo.vote_probability.calls": spans.count("nogo.vote_probability"),
        "approx.partial_info_check_ms": pic_s * ms,
        "approx.pairs_per_s": pairs / pic_s if pic_s > 0 else 0.0,
        "approx.delta_numeric_ms": spans.inclusive_s("approx.delta_numeric") * ms,
        "witness.construct_witness_ms":
            spans.inclusive_s("witness.construct_witness") * ms,
    }
