"""Work counts that must grow linearly with the program, not with its
functions times its occurrences or with the cube of a call chain.

Each test wraps one collection of the resolved program so that every item
read from it is counted, then compares the count with the collection's
size; wall time is never compared.
"""

from __future__ import annotations

from cogscope import analysis as analysis_module
from cogscope.analysis import analyze_source
from cogscope.granules import granulate
from cogscope.parser import parse_source
from cogscope.report import report_document
from cogscope.resolve import ResolvedUnit, resolve


class _Counted(tuple):
    """A tuple that counts the items read from it, by iteration or index."""

    def __new__(cls, items):
        counted = super().__new__(cls, items)
        counted.reads = 0
        return counted

    def __iter__(self):
        for item in tuple.__iter__(self):
            self.reads += 1
            yield item

    def __getitem__(self, key):
        item = tuple.__getitem__(self, key)
        self.reads += len(item) if isinstance(key, slice) else 1
        return item


def _many_functions(count: int) -> str:
    """`count` functions of ten statements each, one global, and a main that
    calls each function once."""
    functions = [
        f"int f{k}(int p) {{\n"
        "  int a = p + g;\n  int b = a * 2;\n  int c = 0;\n"
        "  for (int i = 0; i < b; i++) {\n    c = c + i;\n    if (c > 10) {\n      c -= a;\n    }\n  }\n"
        "  while (a > 0) {\n    a--;\n  }\n"
        "  b = b + c;\n  print(b);\n  return c;\n}\n"
        for k in range(count)
    ]
    calls = "".join(f"  x = x + f{k}(x);\n" for k in range(count))
    return "int g = 3;\n" + "".join(functions) + f"void main() {{\n  int x = read();\n{calls}  print(x);\n}}\n"


def test_analysis_and_report_read_each_occurrence_a_bounded_number_of_times(monkeypatch):
    counted = []

    def resolve_counted(unit):
        resolved = resolve(unit)
        counted.append(_Counted(resolved.occurrences))
        return ResolvedUnit(
            resolved.unit, counted[-1], resolved.call_graph, resolved.stmt_user_callees, resolved.runs
        )

    monkeypatch.setattr(analysis_module, "resolve", resolve_counted)
    analysis = analyze_source(_many_functions(50))
    report_document(analysis)
    occurrences = counted[0]
    assert len(analysis.unit.functions) == 51 and len(occurrences) > 1500
    # Annotation (four reads: ICN, SICN, the names and the symbol uids), I/O
    # classification and one routing per function each read an occurrence
    # about once; the totals and the granule and variable rows read the
    # names and uids annotation keeps, not the occurrences.
    assert occurrences.reads <= 7 * len(occurrences), occurrences.reads / len(occurrences)


def _chain(count: int) -> str:
    """f0 calls f1, ..., f(count-2) calls f(count-1); main calls f0."""
    functions = [f"int f{k}(int v) {{\n  return f{k + 1}(v);\n}}\n" for k in range(count - 1)]
    functions.append(f"int f{count - 1}(int v) {{\n  return v;\n}}\n")
    return "".join(functions) + "void main() {\n  print(f0(1));\n}\n"


def test_granulating_a_call_chain_reads_each_call_edge_a_bounded_number_of_times():
    count = 100
    resolved = resolve(parse_source(_chain(count)))
    edges = _Counted(resolved.call_graph)
    resolved = ResolvedUnit(resolved.unit, resolved.occurrences, edges, resolved.stmt_user_callees, resolved.runs)
    kinds = [g.kind for fn in resolved.unit.functions for g in granulate(resolved, fn.name).walk()]
    assert kinds.count("CALL") == count and "RECURSION" not in kinds
    assert len(edges) == count
    assert edges.reads <= 2 * (count + 1 + len(edges)), edges.reads
