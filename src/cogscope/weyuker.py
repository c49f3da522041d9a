"""Weyuker property checks for the metric suite.

One table (``_PROPERTIES``) gives each property its check, its audited
candidate cases, its note and the note used when no candidate witnesses.
Universal properties (2 nonnegativity, 5 composition monotonicity, 8
renaming invariance) have no candidates: one loop runs their check on each
trial of a seeded pool of generated programs, which feeds every metric, and
stops at the first counterexample.  Existential properties (1, 3, 4, 6a, 6b,
7, 9) are decided by one loop over their fixed candidates: the first witness
satisfies the property, and "violated" means that no candidate witnesses it.
Every reported witness re-verifies from program text alone.  Property 2's
finiteness clause is an argument about bounded program spaces, not a machine
check, and is reported as such.

All candidate programs are evaluated in canonical rendered form so that
line-based metrics compare rendered text with rendered text.  Whatever does
not depend on the metric is done once per harness: each candidate's
canonical text and values, each composition of candidates, and each
permutation check.  A pool program is lexed and parsed once; its
composition and its renaming are scored from the tokens render() wrote and
the parser's tree of them (analysis.analyze_rendered), never lexed.
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
        self.status = status  # satisfied | violated
        self.trials = trials
        self.witness = witness
        self.note = note


class ConformanceTable:
    def __init__(
        self,
        seed: int,
        trials: int,
        results: dict[str, dict[str, PropertyResult]],
        matches: dict[str, bool | None],
    ):
        self.seed = seed
        self.trials = trials
        self.results = results  # metric -> property -> result
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


# ============================================================
# PROPERTY CHECKS
# ============================================================
# A universal check takes a trial index and the pool, concat and rename
# value lists, and returns a counterexample or None.  An existential check
# takes one candidate case and returns a witness or None.


def _negative(harness, metric, i, pool, _concat, _renamed) -> dict | None:
    if pool[i][metric] < 0:
        return {"P": harness._pool_text(i), "value_P": pool[i][metric]}
    return None


def _shrinks(harness, metric, i, pool, composed, _renamed) -> dict | None:
    """|P| <= |P;Q| and |Q| <= |P;Q| fails for P = pool[i], Q = pool[i + 1]."""
    j = (i + 1) % harness.trials
    if composed[i][metric] < max(pool[i][metric], pool[j][metric]) - _FLOAT_TOL:
        p, q = harness._pool_text(i), harness._pool_text(j)
        return {
            "P": p, "Q": q, "PQ": concat(p, q),
            "value_P": pool[i][metric], "value_Q": pool[j][metric], "value_PQ": composed[i][metric],
        }
    return None


def _renaming_changes(harness, metric, i, pool, _concat, renamed) -> dict | None:
    if pool[i][metric] != renamed[i][metric]:
        return {"P": harness._pool_text(i), "value_P": pool[i][metric], "value_renamed": renamed[i][metric]}
    return None


def _differ(harness, metric, before: str, after: str) -> dict | None:
    (p, va), (q, vb) = harness._candidate(before), harness._candidate(after)
    if _ne(va[metric], vb[metric]):
        return {"P": p, "Q": q, "value_P": va[metric], "value_Q": vb[metric]}
    return None


def _equal(harness, metric, before: str, after: str) -> dict | None:
    (p, va), (q, vb) = harness._candidate(before), harness._candidate(after)
    if not _ne(va[metric], vb[metric]):
        return {"P": p, "Q": q, "value": va[metric]}
    return None


def _permutation_differs(harness, metric, before: str, after: str) -> dict | None:
    return _differ(harness, metric, before, after) if harness._permutation(before, after) else None


def _composition_differs(harness, metric, p: str, q: str, r: str, prepend: bool) -> dict | None:
    """|P| = |Q| but |P;R| != |Q;R| (or, prepending, |R;P| != |R;Q|)."""
    (canon_p, vp), (canon_q, vq) = harness._candidate(p), harness._candidate(q)
    if _ne(vp[metric], vq[metric]):
        return None
    pr, vpr = harness._composition(r, p) if prepend else harness._composition(p, r)
    qr, vqr = harness._composition(r, q) if prepend else harness._composition(q, r)
    if not _ne(vpr[metric], vqr[metric]):
        return None
    key, key2 = ("R;P", "R;Q") if prepend else ("P;R", "Q;R")
    return {
        "P": canon_p, "Q": canon_q, "R": harness._candidate(r)[0], key: pr, key2: qr,
        "value_P": vp[metric], "value_Q": vq[metric], f"value_{key}": vpr[metric], f"value_{key2}": vqr[metric],
    }


def _superadditive(harness, metric, p: str, q: str) -> dict | None:
    (canon_p, vp), (canon_q, vq) = harness._candidate(p), harness._candidate(q)
    pq, vpq = harness._composition(p, q)
    if vpq[metric] > vp[metric] + vq[metric] + _FLOAT_TOL:
        return {
            "P": canon_p, "Q": canon_q, "PQ": pq,
            "value_P": vp[metric], "value_Q": vq[metric], "value_PQ": vpq[metric],
        }
    return None


_P4_NOTE = "pair computes 1+2+...+n by loop and by closed form; equivalence documented"
_P6_NOTE = "no candidate composition witnesses"

# property -> (check, candidate cases or None for every trial, note, note when no candidate witnesses)
_PROPERTIES = {
    "1": (_differ, ((_SMALL, _LARGE),), "", "candidate programs scored equal"),
    "2": (_negative, None, "finiteness clause is not machine-checkable; nonnegativity checked", ""),
    "3": (_equal, ((_PLUS, _MINUS),), "", "candidate programs scored differently"),
    "4": (_differ, ((_SUM_LOOP, _SUM_FORMULA),), _P4_NOTE, _P4_NOTE),
    "5": (_shrinks, None, "", ""),
    "6a": (_composition_differs, ((_P6_P, _P6_Q, _P6_R_SEQ, False), (_P6_P, _P6_Q, _P6_R_LOOP, False)), "", _P6_NOTE),
    "6b": (_composition_differs, ((_P6_P, _P6_Q, _P6_R_SEQ, True), (_P6_P, _P6_Q, _P6_R_LOOP, True)), "", _P6_NOTE),
    "7": (_permutation_differs, _P7_PAIRS, "", "no candidate permutation witnesses"),
    "8": (_renaming_changes, None, "", ""),
    "9": (_superadditive, _P9_PAIRS, "", "no candidate composition exceeds the sum"),
}


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
        return self._once(text, lambda: _scored(render(parse_source(text))))

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
        check, cases, note, no_witness = _PROPERTIES[prop]
        if cases is None:  # universal: violated at the first counterexample
            lists = self.pool_values(), self.concat_values(), self.rename_values()
            for i in range(self.trials):
                if (counterexample := check(self, metric, i, *lists)) is not None:
                    return PropertyResult(prop, metric, "violated", i + 1, counterexample, note)
            return PropertyResult(prop, metric, "satisfied", self.trials, None, note)
        for case in cases:  # existential: satisfied at the first witness
            if (witness := check(self, metric, *case)) is not None:
                return PropertyResult(prop, metric, "satisfied", 1, witness, note)
        return PropertyResult(prop, metric, "violated", len(cases), None, no_witness)

    # ---------- the table ----------

    def run_table(self, metrics: list[str]) -> ConformanceTable:
        results: dict[str, dict[str, PropertyResult]] = {}
        matches: dict[str, bool | None] = {}  # None = no documented expectation
        for metric in metrics:
            row = results[metric] = {prop: self.check_property(prop, metric) for prop in PROPERTY_IDS}
            expected = EXPECTED_ROWS.get(metric)
            matches[metric] = None if expected is None else all(
                row[prop].status == expected[prop] for prop in PROPERTY_IDS
            )
        return ConformanceTable(seed=self.seed, trials=self.trials, results=results, matches=matches)


def _is_permutation_pair(before: str | SourceUnit, after: str | SourceUnit) -> bool:
    """Same multiset of top-level statements, possibly different order."""
    def stmt_keys(program: str | SourceUnit) -> Counter:
        return Counter(map(structure_key, _unit(program).function("main").body.stmts))

    return stmt_keys(before) == stmt_keys(after)
