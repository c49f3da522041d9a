"""Weyuker property checks for the metric suite.

Universal properties (2 nonnegativity, 5 composition monotonicity, 8
renaming invariance) run over a seeded pool of generated programs; a single
pool feeds every metric so large trial counts stay cheap.  Existential
properties (1, 3, 4, 6a, 6b, 7, 9) are decided against a fixed suite of
audited witness candidates; a metric satisfies the property when some
candidate witnesses it, and every reported witness re-verifies from program
text alone.  Property 2's finiteness clause is an argument about bounded
program spaces, not a machine check, and is reported as such.

All candidate programs are evaluated in canonical rendered form so that
line-based metrics compare rendered text with rendered text.  Whatever does
not depend on the metric is done once per harness: each candidate's
canonical text and values, each composition of candidates, and each
permutation check.  Programs that concat and rename build are scored from
the renderer's layout (analysis.analyze_rendered), so every program a run
scores is lexed and parsed at most once.
"""

from __future__ import annotations

import random
from collections import Counter

from . import shards
from .analysis import METRIC_IDS, Analysis, analyze_rendered, analyze_source, metric_value
from .generator import GeneratorConfig, generate
from .parser import parse_source
from .render import Rendered, render
from .syntax import SourceUnit, structure_key
from .transforms import _collect_names, _unit, concat, rename

PROPERTY_IDS = ("1", "2", "3", "4", "5", "6a", "6b", "7", "8", "9")

_FLOAT_TOL = 1e-9


class PropertyResult:
    def __init__(
        self, property_id: str, metric: str, status: str, trials: int = 0, witness: dict | None = None, note: str = ""
    ):
        self.property_id = property_id
        self.metric = metric
        self.status = status  # satisfied | violated | vacuous
        self.trials = trials
        self.witness = witness
        self.note = note


class ConformanceTable:
    def __init__(
        self,
        seed: int,
        trials: int,
        results: dict[str, dict[str, PropertyResult]],
        expected: dict[str, dict[str, str]],
        matches: dict[str, bool | None],
    ):
        self.seed = seed
        self.trials = trials
        self.results = results  # metric -> property -> result
        self.expected = expected
        self.matches = matches  # None = no documented expectation


# ============================================================
# WITNESS CANDIDATES
# ============================================================

_SMALL = "void main() {\n    int a;\n    a = 1;\n}\n"

_LARGE = (
    "void main() {\n"
    "    int a;\n"
    "    a = read();\n"
    "    a = a + 1;\n"
    "    print(a);\n"
    "    while (a > 0) {\n"
    "        a = a - 1;\n"
    "    }\n"
    "}\n"
)

_PLUS = "void main() {\n    int a;\n    a = 1 + 1;\n}\n"
_MINUS = "void main() {\n    int a;\n    a = 1 - 1;\n}\n"

_SUM_LOOP = (
    "void main() {\n"
    "    int n;\n"
    "    n = read();\n"
    "    int s = 0;\n"
    "    int i = 1;\n"
    "    while (i <= n) {\n"
    "        s = s + i;\n"
    "        i = i + 1;\n"
    "    }\n"
    "    print(s);\n"
    "}\n"
)
_SUM_FORMULA = (
    "void main() {\n"
    "    int n;\n"
    "    n = read();\n"
    "    int s;\n"
    "    s = n * (n + 1) / 2;\n"
    "    print(s);\n"
    "}\n"
)

_P6_P = "void main() {\n    int x = 0;\n    x = x + 1;\n}\n"
_P6_Q = "void main() {\n    int y = 0;\n    y = y + 1;\n}\n"
_P6_R_SEQ = "void main() {\n    int x = 5;\n    x = x + 1 + 1;\n}\n"
_P6_R_LOOP = (
    "void main() {\n"
    "    int x = 5;\n"
    "    while (x < 9) {\n"
    "        x = x + 1;\n"
    "    }\n"
    "}\n"
)

_P7_PAIRS = (
    (
        "void main() {\n"
        "    int a = 0;\n"
        "    a = a + 1 + 1;\n"
        "    while (a < 9) {\n"
        "        a = a + 1;\n"
        "    }\n"
        "    print(a);\n"
        "}\n",
        "void main() {\n"
        "    int a = 0;\n"
        "    print(a);\n"
        "    while (a < 9) {\n"
        "        a = a + 1;\n"
        "    }\n"
        "    a = a + 1 + 1;\n"
        "}\n",
    ),
    (
        "void main() {\n"
        "    int a = 0;\n"
        "    a = 1 + 1;\n"
        "    while (a < 9) {\n"
        "        a = a + 1;\n"
        "    }\n"
        "    print(a);\n"
        "}\n",
        "void main() {\n"
        "    int a = 0;\n"
        "    print(a);\n"
        "    while (a < 9) {\n"
        "        a = a + 1;\n"
        "    }\n"
        "    a = 1 + 1;\n"
        "}\n",
    ),
)

_P9_PAIRS = (
    # merged-run gain: q's re-declaration continues p's counter chain
    (_SMALL, "void main() {\n    int a = 0;\n    if (a < 5) {\n        a = a + 1;\n    }\n}\n"),
    # structural gain with disjoint I/O
    (
        "void main() {\n"
        "    int a;\n"
        "    a = read();\n"
        "    while (a > 0) {\n"
        "        a = a - 1;\n"
        "    }\n"
        "    print(a);\n"
        "}\n",
        "void main() {\n"
        "    int b;\n"
        "    b = read();\n"
        "    while (b > 0) {\n"
        "        b = b - 1;\n"
        "    }\n"
        "    print(b);\n"
        "}\n",
    ),
    # a variable of q joins p's input set, so its occurrences start counting
    (
        "void main() {\n    int x;\n    x = read();\n}\n",
        "void main() {\n    int x = 5;\n    x = x + 1;\n}\n",
    ),
    # a shared name raises regional information maxima inside q's loop
    (
        "void main() {\n    int x = 0;\n    x = x + 1;\n}\n",
        "void main() {\n    int x = 0;\n    while (x < 5) {\n        x = x + 1;\n    }\n}\n",
    ),
)


# ============================================================
# EXPECTED CONFORMANCE ROWS
# ============================================================

_ALL_SAT = {p: "satisfied" for p in PROPERTY_IDS}

EXPECTED_ROWS: dict[str, dict[str, str]] = {
    "escim": dict(_ALL_SAT),
    "scim_icn": dict(_ALL_SAT),
    "loc": {**_ALL_SAT, "6a": "violated", "6b": "violated", "7": "violated", "9": "violated"},
    "mccm": {**_ALL_SAT, "6a": "violated", "6b": "violated", "7": "violated"},
    "cpcm": {**_ALL_SAT, "6a": "violated", "6b": "violated", "7": "violated"},
    # Any statement permutation that regroups linear blocks changes the
    # structural weight shared by CFS, MCCM and CPCM alike, so CFS cannot
    # be permutation-sensitive while MCCM and CPCM are not; its row keeps
    # property 7 unsatisfied alongside property 6.
    "cfs": {**_ALL_SAT, "6a": "violated", "6b": "violated", "7": "violated"},
    # cicm carries no documented expectation; it is reported but not gated.
}


def _canon(text: str) -> Rendered:
    return render(parse_source(text))


def _metric_values(analysis: Analysis) -> dict[str, float | int]:
    return {m: metric_value(analysis, m) for m in METRIC_IDS}


def _scored(program: Rendered) -> tuple[Rendered, dict[str, float | int]]:
    return program, _metric_values(analyze_rendered(program))


def _rename_mapping(rng: random.Random, unit: SourceUnit) -> dict[str, str]:
    """A random bijection of the program's names, 'main' excepted, onto fresh names."""
    names = sorted(_collect_names(unit) - {"main"})
    shuffled = names[:]
    rng.shuffle(shuffled)
    return {a: f"w{idx}_{b}" for idx, (a, b) in enumerate(zip(names, shuffled))}


def _ne(a: float, b: float) -> bool:
    return abs(a - b) > _FLOAT_TOL


class WeyukerHarness:
    """Runs property checks with one shared program pool across metrics.

    ``jobs`` bounds the processes that run the trials, the caller's included;
    the results are the same at any value (see ``shards``).
    """

    def __init__(
        self,
        seed: int = 1,
        trials: int = 1000,
        jobs: int = 1,
    ):
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        self.seed = seed
        self.trials = trials
        self.jobs = jobs
        rng = random.Random(seed)
        self._seeds = [rng.randrange(2**62) for _ in range(trials)]
        self._pool_texts: list[str] | None = None
        self._pool_values: list[dict[str, float | int]] | None = None
        self._concat_values: list[dict[str, float | int]] | None = None
        self._rename_values: list[dict[str, float | int]] | None = None
        self._candidate_work: dict = {}  # see _once

    # ---------- pools ----------

    def _config_for(self, seed: int) -> GeneratorConfig:
        return GeneratorConfig(seed=seed, max_statements=8, max_nesting_depth=2, variable_pool_size=5)

    def _pool_text(self, i: int) -> str:
        if self._pool_texts is not None:
            return self._pool_texts[i]
        # generator output is already canonical rendered text
        return generate(self._config_for(self._seeds[i]))

    def pool(self) -> list[str]:
        if self._pool_texts is None:
            self._pool_texts = [self._pool_text(i) for i in range(self.trials)]
        return self._pool_texts

    def pool_values(self) -> list[dict[str, float | int]]:
        self._trial_values()
        return self._pool_values

    def concat_values(self) -> list[dict[str, float | int]]:
        self._trial_values()
        return self._concat_values

    def rename_values(self) -> list[dict[str, float | int]]:
        self._trial_values()
        return self._rename_values

    def _trial_values(self) -> None:
        """The pool, concat and rename values of every trial.

        Trial i scores pool[i], composes it with pool[i + 1] (wrapping to
        pool[0] after the last) and renames it under its own RNG, seeded
        from the harness seed and i.  It needs nothing from other trials, so
        the trials run as contiguous index ranges (``shards.plan``), each
        regenerating its programs from the seed list and returning only
        value dicts; a range ending before the last trial also analyzes the
        first program of the next.  The values are merged in index order.
        """
        if self._pool_values is not None:
            return
        rows = shards.run(self._trial_rows, self.trials, self.jobs)
        self._pool_values, self._concat_values, self._rename_values = map(list, zip(*rows))

    def _trial_rows(self, start: int, stop: int) -> list[tuple[dict, dict, dict]]:
        """(pool, concat, rename) values of trials start..stop-1.

        The one analysis of each pool program gives the unit that its
        concatenations and its renaming use, so each program is parsed once,
        and only the analyses of pool[start] and of the current trial's two
        programs are alive at a time.
        """
        rows = []
        first = p = analyze_source(self._pool_text(start))
        for i in range(start, stop):
            j = (i + 1) % self.trials
            q = first if j == start else analyze_source(self._pool_text(j))
            rng = random.Random(f"rename:{self.seed}:{i}")
            rows.append((
                _metric_values(p),
                _metric_values(analyze_rendered(concat(p.unit, q.unit))),
                _metric_values(analyze_rendered(rename(p.unit, _rename_mapping(rng, p.unit)))),
            ))
            p = q
        return rows

    # ---------- audited candidates ----------

    def _once(self, key, work):
        """work(), done the first time this harness asks for `key`.

        The candidate work does not depend on the metric, so every metric's
        checks share it; it lives as long as the harness, so every run of
        the command line does it once.
        """
        try:
            return self._candidate_work[key]
        except KeyError:
            result = self._candidate_work[key] = work()
            return result

    def _candidate(self, text: str) -> tuple[Rendered, dict[str, float | int]]:
        """An audited candidate's canonical text and values."""
        return self._once(text, lambda: _scored(_canon(text)))

    def _composition(self, p: str, q: str) -> tuple[Rendered, dict[str, float | int]]:
        """P;Q of two candidates and its values."""
        return self._once((p, q), lambda: _scored(concat(p, q)))

    def _permutation(self, before: str, after: str) -> bool:
        """Whether two candidates are a permutation pair."""
        return self._once(
            ("7", before, after),
            lambda: _is_permutation_pair(self._candidate(before)[0].unit, self._candidate(after)[0].unit),
        )

    # ---------- property checks ----------

    def check_property(self, property_id: str, metric: str) -> PropertyResult:
        if metric not in METRIC_IDS:
            raise KeyError(f"unknown metric {metric!r}")
        prop = str(property_id)
        if prop not in PROPERTY_IDS:
            raise KeyError(f"unknown property {property_id!r}")
        return getattr(self, f"_check_p{prop}")(metric)

    # -- P1: some two programs differ --

    def _check_p1(self, metric: str) -> PropertyResult:
        (p, va), (q, vb) = self._candidate(_SMALL), self._candidate(_LARGE)
        if _ne(va[metric], vb[metric]):
            witness = {"P": p, "Q": q, "value_P": va[metric], "value_Q": vb[metric]}
            return PropertyResult("1", metric, "satisfied", 1, witness)
        return PropertyResult("1", metric, "violated", 1, note="candidate programs scored equal")

    # -- P2: nonnegativity over the pool; finiteness reported, not checked --

    def _check_p2(self, metric: str) -> PropertyResult:
        note = "finiteness clause is not machine-checkable; nonnegativity checked"
        for i, values in enumerate(self.pool_values()):
            if values[metric] < 0:
                witness = {"P": self._pool_text(i), "value_P": values[metric]}
                return PropertyResult("2", metric, "violated", i + 1, witness, note)
        return PropertyResult("2", metric, "satisfied", self.trials, None, note)

    # -- P3: distinct programs with equal value --

    def _check_p3(self, metric: str) -> PropertyResult:
        (p, va), (q, vb) = self._candidate(_PLUS), self._candidate(_MINUS)
        if not _ne(va[metric], vb[metric]):
            witness = {"P": p, "Q": q, "value": va[metric]}
            return PropertyResult("3", metric, "satisfied", 1, witness)
        return PropertyResult("3", metric, "violated", 1, note="candidate programs scored differently")

    # -- P4: equivalent implementations with different value --

    def _check_p4(self, metric: str) -> PropertyResult:
        (p, va), (q, vb) = self._candidate(_SUM_LOOP), self._candidate(_SUM_FORMULA)
        note = "pair computes 1+2+...+n by loop and by closed form; equivalence documented"
        if _ne(va[metric], vb[metric]):
            witness = {"P": p, "Q": q, "value_P": va[metric], "value_Q": vb[metric]}
            return PropertyResult("4", metric, "satisfied", 1, witness, note)
        return PropertyResult("4", metric, "violated", 1, note=note)

    # -- P5: |P| <= |P;Q| and |Q| <= |P;Q| over the pool --

    def _check_p5(self, metric: str) -> PropertyResult:
        pool_values = self.pool_values()
        concat_values = self.concat_values()
        n = self.trials
        for i in range(n):
            j = (i + 1) % n
            bound = max(pool_values[i][metric], pool_values[j][metric])
            if concat_values[i][metric] < bound - _FLOAT_TOL:
                p, q = self._pool_text(i), self._pool_text(j)
                witness = {
                    "P": p,
                    "Q": q,
                    "PQ": concat(p, q),
                    "value_P": pool_values[i][metric],
                    "value_Q": pool_values[j][metric],
                    "value_PQ": concat_values[i][metric],
                }
                return PropertyResult("5", metric, "violated", i + 1, witness)
        return PropertyResult("5", metric, "satisfied", n)

    # -- P6a / P6b: composition can distinguish equal-valued programs --

    def _p6(self, metric: str, prop: str, prepend: bool) -> PropertyResult:
        candidates = ((_P6_P, _P6_Q, _P6_R_SEQ), (_P6_P, _P6_Q, _P6_R_LOOP))
        for p, q, r in candidates:
            (canon_p, vp), (canon_q, vq) = self._candidate(p), self._candidate(q)
            if _ne(vp[metric], vq[metric]):
                continue
            pr, vpr = self._composition(r, p) if prepend else self._composition(p, r)
            qr, vqr = self._composition(r, q) if prepend else self._composition(q, r)
            if _ne(vpr[metric], vqr[metric]):
                key = "R;P" if prepend else "P;R"
                key2 = "R;Q" if prepend else "Q;R"
                witness = {
                    "P": canon_p,
                    "Q": canon_q,
                    "R": self._candidate(r)[0],
                    key: pr,
                    key2: qr,
                    "value_P": vp[metric],
                    "value_Q": vq[metric],
                    f"value_{key}": vpr[metric],
                    f"value_{key2}": vqr[metric],
                }
                return PropertyResult(prop, metric, "satisfied", 1, witness)
        return PropertyResult(
            prop, metric, "violated", len(candidates), note="no candidate composition witnesses"
        )

    def _check_p6a(self, metric: str) -> PropertyResult:
        return self._p6(metric, "6a", prepend=False)

    def _check_p6b(self, metric: str) -> PropertyResult:
        return self._p6(metric, "6b", prepend=True)

    # -- P7: some statement permutation changes the value --

    def _check_p7(self, metric: str) -> PropertyResult:
        for before, after in _P7_PAIRS:
            if not self._permutation(before, after):
                continue
            (p, va), (q, vb) = self._candidate(before), self._candidate(after)
            if _ne(va[metric], vb[metric]):
                witness = {"P": p, "Q": q, "value_P": va[metric], "value_Q": vb[metric]}
                return PropertyResult("7", metric, "satisfied", 1, witness)
        return PropertyResult(
            "7", metric, "violated", len(_P7_PAIRS), note="no candidate permutation witnesses"
        )

    # -- P8: renaming never changes the value --

    def _check_p8(self, metric: str) -> PropertyResult:
        pool_values = self.pool_values()
        renamed = self.rename_values()
        for i, (orig, ren) in enumerate(zip(pool_values, renamed)):
            if orig[metric] != ren[metric]:
                witness = {
                    "P": self._pool_text(i),
                    "value_P": orig[metric],
                    "value_renamed": ren[metric],
                }
                return PropertyResult("8", metric, "violated", i + 1, witness)
        return PropertyResult("8", metric, "satisfied", len(pool_values))

    # -- P9: composition can exceed the sum of the parts --

    def _check_p9(self, metric: str) -> PropertyResult:
        for p, q in _P9_PAIRS:
            (canon_p, vp), (canon_q, vq) = self._candidate(p), self._candidate(q)
            pq, vpq = self._composition(p, q)
            if vpq[metric] > vp[metric] + vq[metric] + _FLOAT_TOL:
                witness = {
                    "P": canon_p,
                    "Q": canon_q,
                    "PQ": pq,
                    "value_P": vp[metric],
                    "value_Q": vq[metric],
                    "value_PQ": vpq[metric],
                }
                return PropertyResult("9", metric, "satisfied", 1, witness)
        return PropertyResult(
            "9", metric, "violated", len(_P9_PAIRS), note="no candidate composition exceeds the sum"
        )

    # ---------- the table ----------

    def run_table(self, metrics: list[str]) -> ConformanceTable:
        results: dict[str, dict[str, PropertyResult]] = {}
        for metric in metrics:
            row: dict[str, PropertyResult] = {}
            for prop in PROPERTY_IDS:
                row[prop] = self.check_property(prop, metric)
            results[metric] = row
        matches: dict[str, bool | None] = {}
        for metric in metrics:
            expected = EXPECTED_ROWS.get(metric)
            if expected is None:
                matches[metric] = None
                continue
            matches[metric] = all(
                results[metric][prop].status == expected[prop] for prop in PROPERTY_IDS
            )
        return ConformanceTable(
            seed=self.seed,
            trials=self.trials,
            results=results,
            expected={m: dict(EXPECTED_ROWS[m]) for m in metrics if m in EXPECTED_ROWS},
            matches=matches,
        )


def _is_permutation_pair(before: str | SourceUnit, after: str | SourceUnit) -> bool:
    """Same multiset of top-level statements, possibly different order."""
    def stmt_keys(program: str | SourceUnit) -> Counter:
        return Counter(map(structure_key, _unit(program).function("main").body.stmts))

    return stmt_keys(before) == stmt_keys(after)
