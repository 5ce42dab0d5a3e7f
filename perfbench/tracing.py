"""Spans and counters around bethelab's public functions, installed from
outside the program for the traced run.

Each per-layer time metric is the self time of the spans mapped to it: a
span's duration minus the part of it that its child spans cover.  The one
exception is `cli.suite_build_s`, reported inclusive, because its point is
the whole of the work `cli.checks_*` does before any check is timed.

A function is wrapped at every module binding that holds it, because
`cli`, `detform` and `spinchain` import functions by name.  The CLI runs
its checks on worker threads; each thread keeps its own span stack, and a
span opened on an otherwise empty worker stack takes the main thread's
innermost open span (`cli.run_suite`) as its parent.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time

# metric -> the functions ("module:qualname") whose spans it sums
SPAN_METRICS = {
    "cli.run_suite_s": ["cli:run_suite"],
    "cli.emit_s": ["cli:emit"],
    "rmatrix.identity_checks_s": [
        "rmatrix:check_ybe", "rmatrix:permutation_check",
        "rmatrix:rank_one_check", "rmatrix:inversion_check",
        "rmatrix:crossing_transpose_check", "rmatrix:check_fusion_r22",
        "rmatrix:magnetisation_pattern_check"],
    "rmatrix.table_build_s": ["aba:ModelParams.r12_table",
                              "aba:ModelParams.r22_table",
                              "aba:rhat22_table"],
    "aba.bethe_vector_s": ["aba:bethe_vector"],
    "aba.transfer2_apply_s": ["aba:transfer2_apply"],
    "aba.transfer1_apply_s": ["aba:transfer1_apply"],
    "aba.monodromy_apply_s": ["aba:monodromy_apply"],
    "aba.relations_s": ["aba:exchange_check", "aba:cyclic_check",
                        "aba:recurrence_check"],
    "aba.scattering_check_s": ["aba:scattering_check"],
    "aba.asymptotic_check_s": ["aba:asymptotic_check"],
    "aba.renormalised_vector_s": ["aba:renormalised_vector"],
    "aba.apply_two_site_s": ["aba:apply_two_site"],
    "detform.slavnov_s": ["detform:slavnov"],
    "detform.brute_scalar_product_s": ["detform:brute_scalar_product"],
    "detform.ik_determinant_s": ["detform:ik_determinant"],
    "detform.partition_Z_s": ["detform:partition_Z",
                              "detform:partition_Z_via_ik"],
    "detform.simple_component_s": ["detform:simple_component_even",
                                   "detform:simple_component_odd",
                                   "detform:simple_component_direct"],
    "linalg.det_bareiss_s": ["linalg:det_bareiss"],
    "linalg.sp_mul_s": ["linalg:sp_mul"],
    "asm.gen_poly_s": ["asm:gen_poly"],
    "asm.bijection_s": ["asm:asm_to_dwbc", "asm:dwbc_to_asm",
                        "asm:vertex_count_audit"],
    "asm.count_asms_by_columns_s": ["asm:count_asms_by_columns"],
    "asm.dwbc_partition_brute_s": ["asm:dwbc_partition_brute"],
    "spinchain.singlet_s": ["spinchain:singlet"],
    "spinchain.beta_apply_s": ["spinchain:beta_apply"],
    "spinchain.singlet_norm_s": ["spinchain:singlet_norm"],
    "spinchain.hamiltonian_apply_poly_s": ["spinchain:hamiltonian_apply_poly"],
    "spinchain.twisted_translation_s": ["spinchain:twisted_translation_apply"],
    "spinchain.homogeneous_consistency_s": [
        "spinchain:homogeneous_consistency_check"],
    "spinchain.normalisation_audit_s": ["spinchain:singlet_normalisation_audit"],
    "field.laurent_interpolate_s": ["field:laurent_interpolate",
                                    "field:laurent_interpolate_many"],
    "field.solve_exact_s": ["field:solve_exact"],
}
SUITE_BUILD = "cli.suite_build_s"
REPORTED_CHECKS = "cli.reported_check_s"
COUNT_METRICS = ("field.scalar_mul_count", "field.halfpower_mul_count",
                 "rmatrix.table_builds", "asm.asms_enumerated")
TIME_METRICS = tuple(SPAN_METRICS) + (SUITE_BUILD, REPORTED_CHECKS)
ALL_METRICS = TIME_METRICS + COUNT_METRICS


class Counter:
    """A count that several threads may bump: `itertools.count.__next__`
    runs in C under the interpreter lock, so no increment is lost."""

    def __init__(self):
        self._it = itertools.count()
        self.bump = self._it.__next__

    def value(self) -> int:
        """The count so far; read it once, since reading takes a tick."""
        return next(self._it)


class Tracer:
    """Wraps bethelab for one pass; `uninstall` restores every binding."""

    def __init__(self, bethelab_modules):
        self.mods = bethelab_modules
        self.spans = []  # (id, name, start, end, parent, thread)
        self.counters = {name: Counter() for name in COUNT_METRICS}
        self.reported_ms = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._undo = []

    # -- spans ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _spanned(self, name, fn, on_result=None):
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent,
                              threading.get_ident()))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self):
        """The pass's root span, which every top-level span hangs from."""
        sid = next(self._ids)
        self._main_stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._main_stack.pop()
            self.spans.append((sid, "pass", t0, time.perf_counter(), 0,
                               threading.get_ident()))

    # -- installing -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Point every module-level binding of `original` at `replacement`."""
        found = False
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"no binding of {original!r}")

    def _resolve(self, target):
        mod_name, _, qualname = target.partition(":")
        owner = self.mods[mod_name]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    def install(self):
        for metric, targets in SPAN_METRICS.items():
            for target in targets:
                owner, attr = self._resolve(target)
                fn = getattr(owner, attr)
                on_result = None
                if target == "cli:run_suite":
                    on_result = self._record_reported
                wrapper = self._spanned(metric, fn, on_result)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                else:
                    self._rebind(fn, wrapper)
        suites = self.mods["cli"].SUITES
        for key, fn in list(suites.items()):
            self._set_item(suites, key, self._spanned(SUITE_BUILD, fn))
        self._install_counters()

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _count_calls(self, owner, attr, metric):
        fn, bump = getattr(owner, attr), self.counters[metric].bump

        def counted(*args):
            bump()
            return fn(*args)

        self._set(owner, attr, counted)

    def _install_counters(self):
        field = self.mods["field"]
        for cls, metric in ((field.Scalar, "field.scalar_mul_count"),
                            (field.HalfPowerPoly, "field.halfpower_mul_count")):
            self._count_calls(cls, "__mul__", metric)
            self._set(cls, "__rmul__", cls.__mul__)
        self._count_calls(self.mods["rmatrix"].RMat, "column_map",
                          "rmatrix.table_builds")

        generate = self.mods["asm"].generate_asms
        bump_asms = self.counters["asm.asms_enumerated"].bump

        def counted_asms(n):
            for a in generate(n):
                bump_asms()
                yield a

        self._rebind(generate, counted_asms)

    def _record_reported(self, records):
        self.reported_ms.append(sum(r["elapsed_ms"] for r in records))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- reading --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of the pass: self times, the inclusive suite
        build, the summed reported check times and the counts."""
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for sid, name, t0, t1, _parent, _thread in self.spans:
            if name == "pass":
                continue
            if name == SUITE_BUILD:
                out[name] += t1 - t0
            else:
                out[name] += t1 - t0 - _covered(children.get(sid, ()), t0, t1)
        out[REPORTED_CHECKS] = sum(self.reported_ms) / 1000.0
        for name, counter in self.counters.items():
            out[name] = counter.value()
        return out

    def span_records(self, pass_index: int, origin: float) -> list:
        return [{"id": sid, "name": name, "start": t0 - origin,
                 "end": t1 - origin, "parent": parent, "pass": pass_index,
                 "thread": thread}
                for sid, name, t0, t1, parent, thread in self.spans]


def _covered(spans, lo, hi) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for _sid, _name, t0, t1, *_ in sorted(spans, key=lambda s: s[2]):
        t0, t1 = max(t0, reach), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            reach = t1
    return total
