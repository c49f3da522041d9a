"""Program composition operators: concatenation, renaming, permutation.

Each operand is program text or an already parsed SourceUnit; operands are
never modified.  Every operator returns its result as render() writes it: a
`Rendered`, canonical text with its tokens and the parser's tree of them,
so a caller scores it with analysis.analyze_rendered instead of lexing and
parsing it again.  Concatenation merges the two mains into one:

  * q's top-level re-declaration of a name from p's top level is dropped;
    its initializer (if any) survives as a plain assignment, array
    initializers as per-element assignments;
  * q's globals merge the same way, converted initializers running before
    q's part of the body;
  * q's non-main functions and main parameters are renamed fresh on
    collision.

A variable declared in p therefore keeps one live counter across the seam,
which is what makes the composition-sensitivity arguments expressible.
"""

from __future__ import annotations

import random

from .errors import DUMMY_SPAN, ResolveError
from .lexer import BUILTINS, KEYWORDS
from .parser import parse_source
from .render import Rendered, render
from .resolve import resolve
from .syntax import (
    NODE_CLASSES,
    ArrayInit,
    Assign,
    Block,
    Decl,
    Declarator,
    FunctionDef,
    Ident,
    IntLit,
    SourceUnit,
    Stmt,
    Subscript,
    walk,
)


def _unit(program: str | SourceUnit) -> SourceUnit:
    return parse_source(program) if isinstance(program, str) else program


# ============================================================
# RENAMING
# ============================================================


# Node fields hold lists of nodes, nodes, or leaves; the leaves of fields
# `name` and `callee` are identifiers, except the callees of builtins.


def _renamed(node, mapping: dict[str, str]):
    """A copy of the tree under `node` with every name in `mapping` replaced.

    Nodes are copied; spans, literals and operators are shared.  The copy
    keeps its own stack of (original, copy) pairs, so a tree of any depth is
    fine.
    """
    root = object.__new__(node.__class__)
    todo = [(node, root)]
    while todo:
        node, copy = todo.pop()
        fields = copy.__dict__
        for key, value in node.__dict__.items():
            cls = value.__class__
            if cls is str:
                if key == "name" or (key == "callee" and value not in BUILTINS):
                    value = mapping.get(value, value)
            elif cls is list:
                copies = [object.__new__(item.__class__) for item in value]
                todo.extend(zip(value, copies))
                value = copies
            elif cls in NODE_CLASSES:
                copied = object.__new__(cls)
                todo.append((value, copied))
                value = copied
            fields[key] = value
    return root


def _collect_names(unit: SourceUnit) -> set[str]:
    """Every name the program declares or uses: variables, parameters, functions."""
    names: set[str] = set()
    for node in walk(unit):
        fields = node.__dict__
        if "name" in fields:
            names.add(fields["name"])
        elif "callee" in fields and fields["callee"] not in BUILTINS:
            names.add(fields["callee"])
    return names


_IDENT_OK = __import__("re").compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def rename(program: str | SourceUnit, mapping: dict[str, str]) -> Rendered:
    """Apply a bijective renaming of identifiers; structure stays identical.

    Raises ValueError for non-bijective mappings, invalid or reserved target
    names, or attempts to rename 'main'.
    """
    unit = _unit(program)
    names = _collect_names(unit)
    for src, dst in mapping.items():
        if dst in KEYWORDS or dst in BUILTINS or not _IDENT_OK.match(dst):
            raise ValueError(f"invalid rename target {dst!r}")
        if src == "main" and dst != "main":
            raise ValueError("cannot rename 'main'")
    full = {name: mapping.get(name, name) for name in names}
    if len(set(full.values())) != len(full):
        raise ValueError("renaming is not bijective over the program's names")
    return render(_renamed(unit, full))


# ============================================================
# PERMUTATION
# ============================================================


def permute(program: str, seed: int) -> Rendered:
    """Randomly reorder main's top-level statements, keeping the program valid.

    Tries seeded shuffles until the reordered program still resolves
    (declarations stay before the first use of their name); falls back to
    the original order.  Output is canonical text either way.
    """
    unit = parse_source(program)
    main = unit.function("main")
    stmts = list(main.body.stmts)
    if len(stmts) <= 1:
        return render(unit)
    rng = random.Random(seed)
    for _ in range(50):
        candidate = stmts[:]
        rng.shuffle(candidate)
        main.body.stmts = candidate
        text = render(unit)
        try:
            resolve(text.unit)
        except ResolveError:  # a use shuffled ahead of its declaration
            continue
        return text
    main.body.stmts = stmts
    return render(unit)


# ============================================================
# CONCATENATION  (the ";" operator)
# ============================================================


def _fresh_name(base: str, taken: set[str]) -> str:
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def _assign_from_declarator(d: Declarator) -> list[Stmt]:
    """Statements replacing a dropped re-declaration: its initializer effects."""
    if d.init is None:
        return []
    if isinstance(d.init, ArrayInit):
        return [Assign(DUMMY_SPAN, Subscript(DUMMY_SPAN, Ident(DUMMY_SPAN, d.name), IntLit(DUMMY_SPAN, i)), "=", element)
                for i, element in enumerate(d.init.elements)]
    return [Assign(DUMMY_SPAN, Ident(DUMMY_SPAN, d.name), "=", d.init)]


def _merge_decl(decl: Decl, taken: set[str]) -> list[Stmt]:
    """Split one declaration around declarators that collide with `taken`."""
    out: list[Stmt] = []
    pending: list[Declarator] = []

    def flush() -> None:
        if pending:
            out.append(Decl(span=DUMMY_SPAN, declarators=list(pending)))
            pending.clear()

    for d in decl.declarators:
        if d.name in taken:
            flush()
            out.extend(_assign_from_declarator(d))
        else:
            pending.append(d)
    flush()
    return out


def concat(p: str | SourceUnit, q: str | SourceUnit) -> Rendered:
    """The P;Q composition: q's main body runs after p's inside one main."""
    p_unit = _unit(p)
    q_unit = _unit(q)
    p_main = p_unit.function("main")

    # Freshen q's colliding non-main functions and main parameters.
    p_function_names = {f.name for f in p_unit.functions}
    p_top_names = {param.name for param in p_main.params}
    for stmt in p_main.body.stmts:
        if isinstance(stmt, Decl):
            p_top_names.update(d.name for d in stmt.declarators)
    colliding = [f.name for f in q_unit.functions if f.name != "main" and f.name in p_function_names]
    colliding += [param.name for param in q_unit.function("main").params if param.name in p_top_names]
    if colliding:
        taken = _collect_names(p_unit) | _collect_names(q_unit)
        fresh: dict[str, str] = {}
        for name in colliding:
            fresh[name] = _fresh_name(name, taken)
            taken.add(fresh[name])
        q_unit = _renamed(q_unit, fresh)
    q_main = q_unit.function("main")

    # Merge globals; colliding re-declarations become leading assignments.
    p_global_names = {d.name for decl in p_unit.globals for d in decl.declarators}
    merged_globals = list(p_unit.globals)
    q_start: list[Stmt] = []
    for decl in q_unit.globals:
        keep: list[Declarator] = []
        for d in decl.declarators:
            if d.name in p_global_names:
                q_start.extend(_assign_from_declarator(d))
            else:
                keep.append(d)
        if keep:
            merged_globals.append(Decl(span=DUMMY_SPAN, declarators=keep))

    # q's top-level statements, with re-declarations of p's top names dropped.
    q_body: list[Stmt] = list(q_start)
    for stmt in q_main.body.stmts:
        if isinstance(stmt, Decl):
            q_body.extend(_merge_decl(stmt, p_top_names))
        else:
            q_body.append(stmt)

    body = Block(DUMMY_SPAN, [*p_main.body.stmts, *q_body])
    merged_main = FunctionDef("main", [*p_main.params, *q_main.params], body, DUMMY_SPAN, p_main.ret_type)
    # q's helpers go before the merged main: name-keyed counters then see
    # every part of the combined program no earlier than they did alone.
    functions: list[FunctionDef] = []
    for fn in p_unit.functions:
        if fn.name == "main":
            functions.extend(f for f in q_unit.functions if f.name != "main")
            functions.append(merged_main)
        else:
            functions.append(fn)
    return render(SourceUnit(functions=functions, globals=merged_globals))
