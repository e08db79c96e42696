"""Layer spans and counters, installed from outside the package.

The tracer wraps public subsetkex functions in every module namespace
that binds them, and methods on their classes, so calls between modules
go through the wrapper too.  Each wrapped call is a span with a name,
start, end, parent and the index of the benchmark op that caused it.
Self time is a span's duration minus the time its child spans cover.
Counting-only hooks (no span) record work and outcomes at the same
boundaries.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import sys
import time
from array import array

# span name -> (module, attribute path) of every function it wraps
SPANS = {
    "groups.evaluate": (("groups", "GroupParams.evaluate"),),
    "groups.mul": (("groups", "GroupElement.__mul__"),),
    "groups.element": (("groups", "GroupParams.element"),),
    "groups.phi_power": (("groups", "GroupParams.phi_power"),),
    "groups.matrix_power": (("groups", "matrix_power"),),
    "oracle.convert": (("groups", "GroupElement.oracle"),),
    "oracle.mul": (("groups", "OracleElement.__mul__"),),
    "grammars.sample": (("grammars", "sample_grammar"),),
    "grammars.cyk": (("grammars", "cfg_membership"),),
    "grammars.closure": (("grammars", "subgroup_closure"),),
    "protocols.setup": (("protocols", "p1_setup"),
                        ("protocols", "p2_party_setup")),
    "protocols.commute_check": (("protocols", "commutation_spot_check"),),
    "protocols.round": (("protocols", "p1_round"), ("protocols", "p1_keys"),
                        ("protocols", "p2_exchange_full")),
    "protocols.orbit_dh": (("protocols", "orbit_dh"),),
    "attacks.build_instance": (("attacks", "build_p1_instance"),),
    "attacks.search": (("attacks", "rst_greedy"),
                       ("attacks", "derivation_descent")),
    "attacks.lattice_member": (("attacks", "lattice_member"),),
    "attacks.subset_distance": (("attacks", "subset_distance"),),
    "attacks.verify_break": (("attacks", "verify_break"),),
    "serialize.encode": tuple(
        ("serialize", f"encode_{kind}")
        for kind in ("matrix", "vector", "element", "word", "grammar", "policy")),
    "serialize.decode": tuple(
        ("serialize", f"decode_{kind}")
        for kind in ("group", "vector", "element", "word", "grammar", "policy")),
    "cli.main": (("cli", "main"),),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> hook(counts, args, kwargs, result), run after the call returns
def _count_tokens(counts, args, kwargs, result):
    counts["groups.evaluate.tokens"] += len(_arg(args, kwargs, 1, "word"))


def _count_sample(counts, args, kwargs, result):
    counts["grammars.sample.tokens"] += len(result)


def _count_cyk(counts, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "word"))
    counts["grammars.cyk.cells"] += n * (n + 1) // 2
    counts["grammars.cyk.accepted"] += bool(result)


def _count_search(counts, args, kwargs, result):
    counts["attacks.search.iterations"] += result.iterations


def _count_verdict(counts, args, kwargs, result):
    key = {"member": "member", "non-member-in-window": "non_member"}.get(
        result.value, "unknown")
    counts[f"attacks.lattice_member.{key}"] += 1


def _count_verify(counts, args, kwargs, result):
    counts["attacks.verify_break.true"] += bool(result)


SPAN_HOOKS = {
    "groups.evaluate": _count_tokens,
    "grammars.sample": _count_sample,
    "grammars.cyk": _count_cyk,
    "attacks.search": _count_search,
    "attacks.lattice_member": _count_verdict,
    "attacks.verify_break": _count_verify,
}


def _count_preimage(counts, args, kwargs, result):
    counts["groups.preimage.calls"] += 1
    counts["groups.preimage.hits"] += result is not None


def _count_sampled_element(counts, args, kwargs, result):
    counts["grammars.sample.elements"] += 1
    counts["grammars.sample.identity"] += (
        result.p == 0 and result.q == 0 and not any(result.v))


def _count_bytes(counts, args, kwargs, result):
    counts["serialize.bytes_out"] += len(result.encode())


# counting-only wrappers: (module, attribute path) -> hook
COUNTERS = {
    ("groups", "GroupParams.preimage_under_phi"): _count_preimage,
    ("grammars", "SubsetSpec.sample_element"): _count_sampled_element,
    ("serialize", "dumps"): _count_bytes,
}

COUNT_NAMES = (
    "groups.evaluate.tokens", "groups.preimage.calls", "groups.preimage.hits",
    "grammars.sample.tokens", "grammars.sample.elements",
    "grammars.sample.identity", "grammars.cyk.cells", "grammars.cyk.accepted",
    "attacks.search.iterations", "attacks.lattice_member.member",
    "attacks.lattice_member.non_member", "attacks.lattice_member.unknown",
    "attacks.verify_break.true", "serialize.bytes_out",
)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "subsetkex" or name.startswith("subsetkex."))]


class Tracer:
    """Spans in compact arrays plus per-name totals, for one process."""

    def __init__(self):
        self.names = tuple(SPANS)
        self.stats = {name: [0, 0.0] for name in self.names}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.op = -1
        self.recording = True
        self.paused = False  # set while the benchmark runs its own checks
        self.next_id = 0
        self.span_id = array("l")
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, child time] per open span
        self._patches = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the subsetkex modules imported so far."""
        modules = _package_modules()
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        for index, name in enumerate(self.names):
            for module, path in SPANS[name]:
                self._patch(modules, by_name, module, path,
                            lambda fn, i=index, n=name: self._span(i, n, fn))
        for (module, path), hook in COUNTERS.items():
            self._patch(modules, by_name, module, path,
                        lambda fn, h=hook: self._counter(h, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modules, by_name, module, path, make) -> None:
        mod = by_name.get(module)
        if mod is None:
            return  # the module is not imported in this process
        head, _, attr = path.rpartition(".")
        if head:
            owner = getattr(mod, head)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span(self, index, name, fn):
        stats = self.stats[name]
        hook = SPAN_HOOKS.get(name)
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_id = -1
            if self.recording:
                span_id = self.next_id
                self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id >= 0:
                    self._record(span_id, index, parent, start, end)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, hook, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self.paused:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, span_id, index, parent, start, end) -> None:
        self.span_id.append(span_id)
        self.span_name.append(index)
        self.span_op.append(self.op)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "spans": self.next_id,
        }

    def export(self) -> dict:
        """Totals and spans as JSON-ready data (for a child process)."""
        out = self.snapshot()
        out["next_id"] = self.next_id
        out["spans"] = [
            [i, self.names[n], s, e, p]
            for i, n, s, e, p in zip(self.span_id, self.span_name,
                                     self.span_start, self.span_end,
                                     self.span_parent)
        ]
        return out

    def merge(self, data: dict) -> None:
        """Add a child process's export, tagging its spans with self.op."""
        for name, (calls, self_s) in data["stats"].items():
            self.stats[name][0] += calls
            self.stats[name][1] += self_s
        for name, value in data["counts"].items():
            self.counts[name] += value
        if not self.recording:
            return
        offset = self.next_id
        for span_id, name, start, end, parent in data["spans"]:
            self._record(span_id + offset, self.names.index(name),
                         parent + offset if parent >= 0 else -1, start, end)
        self.next_id += data["next_id"]

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, op, start, end, parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, n, o, s, e, p in zip(self.span_id, self.span_name,
                                        self.span_op, self.span_start,
                                        self.span_end, self.span_parent):
                fh.write(f'[{i},"{self.names[n]}",{o},{s!r},{e!r},{p}]\n')
