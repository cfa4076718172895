"""Per-layer tracing of extcalc from outside the package.

`Tracer.install()` wraps the public callables of each extcalc module in
every module namespace that binds them (and patches public methods on
the classes that own them), so internal calls are traced as well as the
benchmark's own.  Each wrapped call records one span (name, start, end,
parent span, query id) in memory; a call that re-enters a span of the
same name is folded into it, so `calls` counts entries into a metric
from outside it.  Counters are taken from arguments and results at the
same boundaries.  `uninstall()` restores every original binding.

Self time of a span is its duration minus the time its child spans
cover; the per-layer table sums self time by metric name and by layer
(the first component of the name).  Taking counters from large matrices
costs time of its own, which is recorded as a "trace.measure" child span
so that it is charged to no extcalc layer.
"""

import time
from collections import Counter

LAYERS = ("cli", "groupring", "resolution", "exactint", "fpab", "ses",
          "poset_sheaf")


def _nnz(m):
    return sum(1 for row in m.data for x in row if x)


def _max_bits(m):
    return max((abs(x).bit_length() for row in m.data for x in row),
               default=0)


def _elim_measure(counts, args, kwargs, result):
    a = args[0]
    cols = a.cols
    cells, nnz = a.rows * a.cols, _nnz(a)
    if len(args) > 1:  # constrained_kernel(a, rel) eliminates [a | rel]
        rel = args[1]
        cols += rel.cols
        cells, nnz = a.rows * cols, nnz + _nnz(rel)
    counts["exactint.elim.cells_in"] += cells
    counts["exactint.elim.nnz_in"] += nnz
    if not isinstance(result, int):
        bits = _max_bits(result)
        if bits > counts["exactint.elim.max_bits_out"]:
            counts["exactint.elim.max_bits_out"] = bits


def _snf_measure(counts, args, kwargs, result):
    counts["exactint.snf.cells_in"] += args[0].rows * args[0].cols


def _bar_measure(counts, args, kwargs, result):
    counts["groupring.bar_resolution.rank_total"] += sum(
        f.rank for f in result.frees)


def _free_res_measure(counts, args, kwargs, result):
    counts["resolution.free_resolution.rank_total"] += sum(
        result.ctx.free_rank(f) for f in result.frees)


def _hom_complex_measure(counts, args, kwargs, result):
    counts["resolution.hom_complex.gens_total"] += sum(
        g.gens for g in result.groups)


def _sheaf_ext_name(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "general")
    return f"poset_sheaf.sheaf_ext.{method}"


def _targets(extcalc):
    """(owner, attribute, span name, measure) for every traced callable.

    owner is a module (the function is rebound in every extcalc module
    that holds the same object) or a class (the method is patched on the
    class).  The span name may be a function of the call's arguments.
    A span name of None records no span and counts calls under the
    counter named in place of the measure.
    """
    cli, exactint, fpab = extcalc.cli, extcalc.exactint, extcalc.fpab
    groupring, resolution = extcalc.groupring, extcalc.resolution
    ses, poset_sheaf = extcalc.ses, extcalc.poset_sheaf
    out = [(cli, "main", "cli", None)]

    for fn in ("kernel_basis", "constrained_kernel", "column_space_basis",
               "rank"):
        out.append((exactint, fn, "exactint.elim", _elim_measure))
    out.append((exactint, "snf", "exactint.snf", _snf_measure))
    for cls in (exactint.SnfSolver, exactint.ModSolver):
        out.append((cls, "__init__", "exactint.solver_build", None))
        out.append((cls, "solve", "exactint.solve", None))
        out.append((cls, "solve_matrix", "exactint.solve", None))
    out.append((exactint, "solve", "exactint.solve", None))
    out.append((exactint, "solve_mod", "exactint.solve", None))
    out.append((exactint.IntMatrix, "__init__", None,
                "exactint.intmatrix.inits"))

    out.append((fpab, "hom_group", "fpab.hom_group", None))
    out.append((fpab, "kernel", "fpab.kernel", None))
    out.append((fpab.HomGroup, "coords_of", "fpab.coords_of", None))
    for fn in ("cokernel", "compose", "is_epi", "is_mono",
               "lift_through_epi", "corestrict", "induced_hom_group_map",
               "direct_sum", "direct_sum_many", "minimized"):
        out.append((fpab, fn, "fpab.other", None))
    out.append((fpab.HomGroup, "hom_of", "fpab.other", None))

    for fn in ("make_ses", "split_ses", "morphism_between",
               "are_equivalent", "is_split", "pushout_ses",
               "pushout_middle_map", "pullback_ses", "baer_sum",
               "ext1_group", "class_of", "realize_class",
               "ext1_pushforward", "ext1_pullback", "six_term"):
        out.append((ses, fn, "ses", None))

    out.append((resolution, "free_resolution",
                "resolution.free_resolution", _free_res_measure))
    out.append((resolution, "hom_complex", "resolution.hom_complex",
                _hom_complex_measure))
    out.append((resolution, "cohomology_data", "resolution.cohomology_data",
                None))
    out.append((resolution, "cohomology", "resolution.cohomology_data",
                None))
    out.append((resolution, "lift_chain_map", "resolution.lift_chain_map",
                None))
    out.append((resolution, "ext_n", "resolution.other", None))
    out.append((resolution.CohomologyData, "coords_of", "resolution.other",
                None))
    out += _context_methods(resolution.ZContext, "resolution.context")

    out.append((groupring, "group_cohomology", "groupring.group_cohomology",
                None))
    out.append((groupring, "bar_resolution", "groupring.bar_resolution",
                _bar_measure))
    for fn in ("periodic_resolution", "fixed_points", "h1_crossed",
               "ext_action", "group_ring_module", "trivial_module",
               "sign_module", "make_group", "cyclic", "klein_four",
               "symmetric3"):
        out.append((groupring, fn, "groupring.other", None))
    out += _context_methods(groupring.GModuleContext, "groupring.context")

    out.append((poset_sheaf, "sheaf_ext", _sheaf_ext_name, None))
    out.append((poset_sheaf, "witness_search",
                "poset_sheaf.witness_search", None))
    out.append((poset_sheaf, "internal_projectivity_witness",
                "poset_sheaf.witness", None))
    out.append((poset_sheaf.PresheafHomGroup, "__init__",
                "poset_sheaf.presheaf_hom_group", None))
    out.append((poset_sheaf, "presheaf_hom_group",
                "poset_sheaf.presheaf_hom_group", None))
    out.append((poset_sheaf.PresheafHomGroup, "coords_of",
                "poset_sheaf.coords_of", None))
    for fn in ("external_ext", "internal_hom", "global_sections",
               "make_poset", "chain", "bowtie", "free_presheaf",
               "principal_intersection_check", "is_epi", "is_mono"):
        out.append((poset_sheaf, fn, "poset_sheaf.other", None))
    for cls in (poset_sheaf.AbPresheaf, poset_sheaf.PresheafHom):
        out.append((cls, "__init__", "poset_sheaf.other", None))
    out += _context_methods(poset_sheaf.PresheafContext,
                            "poset_sheaf.context")
    return out


def _context_methods(cls, name):
    return [(cls, attr, name, None) for attr, value in vars(cls).items()
            if callable(value) and not attr.startswith("_")]


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent, query]
        self.counts = Counter()
        self.query = None
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self, extcalc):
        modules = [getattr(extcalc, m) for m in LAYERS]
        for owner, attr, name, measure in _targets(extcalc):
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(orig, name, measure))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, fn, name, measure):
        counts = self.counts
        if name is None:  # count-only boundary, no span
            key = measure

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            span_name = fixed or name(args, kwargs)
            if stack and spans[stack[-1]][0] == span_name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([span_name, 0, 0, stack[-1] if stack else -1,
                          self.query])
            stack.append(idx)
            counts[span_name + ".calls"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[span_name.split(".", 1)[0] + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if measure is not None:
                # timed as a child span of the caller so that counting
                # is not charged to any extcalc layer
                start = clock()
                measure(counts, args, kwargs, result)
                spans.append(["trace.measure", start, clock(),
                              stack[-1] if stack else -1, self.query])
            return result
        return traced

    # ------------------------------------------------------------ analyse

    def self_times(self):
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), kids in zip(self.spans, child_ns):
            out[name] += (end - start - kids) / 1e9
        return out

    def top_level_s(self):
        """Seconds covered by spans with no parent (time inside extcalc)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0) / 1e9

    def dump(self, path):
        """Write the spans as tab-separated lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tquery\n")
            for name, start, end, parent, query in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{query}\n")
