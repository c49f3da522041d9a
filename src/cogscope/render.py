"""Canonical MiniLang renderer.

render() is deterministic and parse(render(u)) is structurally identical to
u, which is what the renaming / permutation / concatenation transforms need.
Style: four-space indents, one statement per line, braces always emitted.
"""

from __future__ import annotations

from .syntax import (
    ArrayInit,
    Assign,
    Binary,
    Block,
    CallExpr,
    CallStmt,
    Decl,
    DoWhile,
    Expr,
    For,
    Ident,
    If,
    IntLit,
    Interrupt,
    Parallel,
    Return,
    SourceUnit,
    Stmt,
    StrLit,
    Subscript,
    Switch,
    Unary,
    While,
)

_INDENT = "    "


def render_expr(expr: Expr) -> str:
    """Expression text, every binary operation in parentheses.

    The parser builds an operator chain left-deep, so a loop down the left
    operands renders a chain of any length; only right operands recurse, as
    deep as parentheses nest.
    """
    if isinstance(expr, Ident):
        return ("::" if expr.global_qualified else "") + expr.name
    if isinstance(expr, IntLit):
        return str(expr.value) if expr.value >= 0 else f"(-{-expr.value})"
    if isinstance(expr, StrLit):
        return expr.raw
    if isinstance(expr, Binary):
        chain = [expr]
        expr = expr.lhs
        while isinstance(expr, Binary):
            chain.append(expr)
            expr = expr.lhs
        parts = ["(" * len(chain), render_expr(expr)]
        for node in reversed(chain):
            parts.append(f" {node.op} {render_expr(node.rhs)})")
        return "".join(parts)
    if isinstance(expr, Unary):
        return f"{expr.op}{render_expr(expr.operand)}"
    if isinstance(expr, Subscript):
        return f"{render_expr(expr.base)}[{render_expr(expr.index)}]"
    if isinstance(expr, CallExpr):
        return f"{expr.callee}({', '.join(render_expr(a) for a in expr.args)})"
    if isinstance(expr, ArrayInit):
        return "{" + ", ".join(render_expr(e) for e in expr.elements) + "}"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _render_top(expr: Expr) -> str:
    """Expression at a statement position: no redundant outer parentheses."""
    if isinstance(expr, Binary):
        return render_expr(expr)[1:-1]
    if isinstance(expr, ArrayInit):
        return "{" + ", ".join(_render_top(e) for e in expr.elements) + "}"
    if isinstance(expr, CallExpr):
        return f"{expr.callee}({', '.join(_render_top(a) for a in expr.args)})"
    return render_expr(expr)


def _render_decl(decl: Decl) -> str:
    parts = []
    for d in decl.declarators:
        text = d.name + ("[]" if d.is_array else "")
        if d.init is not None:
            text += f" = {_render_top(d.init)}"
        parts.append(text)
    return "int " + ", ".join(parts) + ";"


def _render_assign(stmt: Assign, with_semi: bool = True) -> str:
    target = render_expr(stmt.target)
    if stmt.op in ("++", "--"):
        text = f"{target}{stmt.op}"
    else:
        text = f"{target} {stmt.op} {_render_top(stmt.value)}"
    return text + (";" if with_semi else "")


def _render_stmt(stmt: Stmt, out: list[str], depth: int) -> None:
    pad = _INDENT * depth
    if isinstance(stmt, Decl):
        out.append(pad + _render_decl(stmt))
    elif isinstance(stmt, Assign):
        out.append(pad + _render_assign(stmt))
    elif isinstance(stmt, CallStmt):
        args = ", ".join(_render_top(a) for a in stmt.args)
        out.append(f"{pad}{stmt.callee}({args});")
    elif isinstance(stmt, Return):
        out.append(pad + ("return;" if stmt.value is None else f"return {_render_top(stmt.value)};"))
    elif isinstance(stmt, Block):
        out.append(pad + "{")
        for inner in stmt.stmts:
            _render_stmt(inner, out, depth + 1)
        out.append(pad + "}")
    elif isinstance(stmt, If):
        out.append(f"{pad}if ({_render_top(stmt.cond)}) {{")
        for inner in stmt.then_block.stmts:
            _render_stmt(inner, out, depth + 1)
        if stmt.else_block is None:
            out.append(pad + "}")
        else:
            out.append(pad + "} else {")
            for inner in stmt.else_block.stmts:
                _render_stmt(inner, out, depth + 1)
            out.append(pad + "}")
    elif isinstance(stmt, Switch):
        out.append(f"{pad}switch ({_render_top(stmt.scrutinee)}) {{")
        for case in stmt.cases:
            out.append(f"{pad}{_INDENT}case {case.literal.value}: {{")
            for inner in case.block.stmts:
                _render_stmt(inner, out, depth + 2)
            out.append(pad + _INDENT + "}")
        if stmt.default_block is not None:
            out.append(pad + _INDENT + "default: {")
            for inner in stmt.default_block.stmts:
                _render_stmt(inner, out, depth + 2)
            out.append(pad + _INDENT + "}")
        out.append(pad + "}")
    elif isinstance(stmt, For):
        init = ""
        if isinstance(stmt.init, Decl):
            init = _render_decl(stmt.init)[:-1]  # drop ';'
        elif isinstance(stmt.init, Assign):
            init = _render_assign(stmt.init, with_semi=False)
        cond = _render_top(stmt.cond) if stmt.cond is not None else ""
        step = _render_assign(stmt.step, with_semi=False) if stmt.step is not None else ""
        out.append(f"{pad}for ({init}; {cond}; {step}) {{")
        for inner in stmt.body.stmts:
            _render_stmt(inner, out, depth + 1)
        out.append(pad + "}")
    elif isinstance(stmt, While):
        out.append(f"{pad}while ({_render_top(stmt.cond)}) {{")
        for inner in stmt.body.stmts:
            _render_stmt(inner, out, depth + 1)
        out.append(pad + "}")
    elif isinstance(stmt, DoWhile):
        out.append(pad + "do {")
        for inner in stmt.body.stmts:
            _render_stmt(inner, out, depth + 1)
        out.append(f"{pad}}} while ({_render_top(stmt.cond)});")
    elif isinstance(stmt, Parallel):
        out.append(pad + "parallel {")
        for inner in stmt.body.stmts:
            _render_stmt(inner, out, depth + 1)
        out.append(pad + "}")
    elif isinstance(stmt, Interrupt):
        out.append(pad + "interrupt {")
        for inner in stmt.body.stmts:
            _render_stmt(inner, out, depth + 1)
        out.append(pad + "}")
    else:
        raise TypeError(f"unknown statement node {type(stmt).__name__}")


def render(unit: SourceUnit) -> str:
    """Render a SourceUnit to canonical MiniLang text."""
    out: list[str] = []
    for decl in unit.globals:
        out.append(_render_decl(decl))
    if unit.globals:
        out.append("")
    for i, fn in enumerate(unit.functions):
        if i:
            out.append("")
        params = ", ".join(f"int {p.name}" + ("[]" if p.is_array else "") for p in fn.params)
        out.append(f"{fn.ret_type} {fn.name}({params}) {{")
        for stmt in fn.body.stmts:
            _render_stmt(stmt, out, 1)
        out.append("}")
    return "\n".join(out) + "\n"
