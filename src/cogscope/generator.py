"""Seeded random MiniLang program generator.

Used by the Weyuker harness for universal property checks and by the test
suite as a source of structurally varied, always-valid programs.  The same
seed and config produce byte-identical output.

Generated declarations are single-declarator and always initialized: the
concatenation operator turns duplicate declarations into assignments, and
initialized declarations keep per-granule information spreads intact across
that rewrite, which the monotonicity properties rely on.
"""

from __future__ import annotations

import functools
import itertools
import random

DEFAULT_WEIGHTS: dict[str, float] = {
    "decl": 3.0,
    "assign": 5.0,
    "compound": 2.0,
    "incdec": 1.5,
    "print": 1.5,
    "read_assign": 1.0,
    "if": 1.5,
    "if_else": 1.0,
    "while": 1.2,
    "dowhile": 0.5,
    "for": 1.5,
    "switch": 0.5,
    "parallel": 0.25,
    "interrupt": 0.25,
    "block": 0.7,
    "call": 0.8,
    "return": 0.25,
    "array_decl": 0.8,
    "array_assign": 0.8,
}

_BINOPS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||")
_COMPOUND = ("+=", "-=", "*=", "/=", "%=")

_WRITES_SCALAR = frozenset(("assign", "compound", "incdec", "print", "read_assign"))
_NESTS = frozenset(("if", "if_else", "while", "dowhile", "for", "switch", "parallel", "interrupt", "block"))
_TESTS_SCALAR = frozenset(("if", "if_else", "while", "dowhile", "switch"))
_DECLARES = ("decl", "array_decl")


class _FormTable(dict):
    """The forms a statement is drawn from, with their cumulative weights,
    by generator state, for one weights vector.  Every generator with those
    weights shares the table (``_form_table``): an entry depends on nothing
    else, and is built on first use, so only the states reached are kept.

    A state is whether scalars are in scope, whether arrays are, whether a
    nested statement fits, whether there is a helper, and, for each
    declaration form of positive weight in `weights` order (``declares``),
    whether its pool has a name not declared in the innermost scope.
    """

    def __init__(self, weights: tuple[tuple[str, float], ...]):
        super().__init__()
        self.weights = weights
        self.declares = tuple(form for form, weight in weights if form in _DECLARES and weight > 0)

    def __missing__(self, state: tuple[bool, ...]) -> tuple[list[str], list[float]]:
        scalars, arrays, nested_ok, helper = state[:4]
        free = {form for form, ok in zip(self.declares, state[4:]) if ok}
        forms, w = [], []
        for form, weight in self.weights:
            if weight <= 0:
                continue
            if form in _WRITES_SCALAR and not scalars:
                continue
            if form == "array_assign" and not (arrays and scalars):
                continue
            if form in _NESTS and not nested_ok:
                continue
            if form in _TESTS_SCALAR and not scalars:
                continue
            if form == "call" and not helper:
                continue
            if form in _DECLARES and form not in free:
                continue
            forms.append(form)
            w.append(weight)
        entry = self[state] = forms, list(itertools.accumulate(w))
        return entry


_form_table = functools.lru_cache(maxsize=16)(_FormTable)


class GeneratorConfig:
    def __init__(
        self,
        seed: int = 0,
        max_statements: int = 10,
        max_nesting_depth: int = 2,
        variable_pool_size: int = 6,
        weights: dict[str, float] | None = None,
        allow_globals: bool = True,
        allow_functions: bool = True,
    ):
        self.seed = seed
        self.max_statements = max_statements
        self.max_nesting_depth = max_nesting_depth
        self.variable_pool_size = variable_pool_size
        self.weights = dict(DEFAULT_WEIGHTS) if weights is None else weights
        self.allow_globals = allow_globals
        self.allow_functions = allow_functions


class _Gen:
    def __init__(self, config: GeneratorConfig):
        self.cfg = config
        self.rng = random.Random(config.seed)
        self.pool = [f"v{i}" for i in range(max(1, config.variable_pool_size))]
        self.array_pool = [f"arr{i}" for i in range(max(1, config.variable_pool_size // 2))]
        self.budget = config.max_statements
        self.scopes: list[dict[str, bool]] = []  # name -> is_array
        self._visible: tuple[list[str], list[str]] | None = None  # of the scopes as they are
        self.forms = _form_table(tuple(config.weights.items()))
        self.declare_pools = [self.pool if form == "decl" else self.array_pool for form in self.forms.declares]
        self.globals: list[str] = []
        self.helper: str | None = None
        self.lines: list[str] = []

    # ---------- scope helpers ----------

    def push(self) -> None:
        self.scopes.append({})
        self._visible = None

    def pop(self) -> None:
        self.scopes.pop()
        self._visible = None

    def declare(self, name: str, is_array: bool = False) -> None:
        self.scopes[-1][name] = is_array
        self._visible = None

    def visible(self) -> tuple[list[str], list[str]]:
        """The scalar names and the array names in scope, each sorted; the
        lists are shared until the scopes change, so callers only read them."""
        if self._visible is None:
            seen: dict[str, bool] = {}
            for frame in self.scopes:
                seen.update(frame)
            self._visible = (
                sorted(n for n, is_arr in seen.items() if not is_arr),
                sorted(n for n, is_arr in seen.items() if is_arr),
            )
        return self._visible

    # ---------- expressions ----------

    def literal(self) -> str:
        return str(self.rng.randrange(0, 10))

    def atom(self) -> str:
        scalars, arrays = self.visible()
        choices = ["lit"]
        if scalars:
            choices += ["var", "var"]
        if arrays and scalars:
            choices.append("subscript")
        if self.globals and self.rng.random() < 0.25:
            return f"::{self.rng.choice(self.globals)}"
        pick = self.rng.choice(choices)
        if pick == "var":
            return self.rng.choice(scalars)
        if pick == "subscript":
            return f"{self.rng.choice(arrays)}[{self.rng.choice(scalars)}]"
        return self.literal()

    def expr(self, depth: int = 0) -> str:
        # parenthesization matches the canonical renderer exactly
        roll = self.rng.random()
        if depth >= 2 or roll < 0.45:
            return self.atom()
        if roll < 0.55:
            return f"-{self.atom()}"
        op = self.rng.choice(_BINOPS)
        inner = f"{self.expr(depth + 1)} {op} {self.expr(depth + 1)}"
        return f"({inner})" if depth > 0 else inner

    def cond(self) -> str:
        op = self.rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return f"{self.atom()} {op} {self.atom()}"

    # ---------- statements ----------

    def fresh_name(self, pool: list[str]) -> str | None:
        here = self.scopes[-1]
        free = [n for n in pool if n not in here]
        return self.rng.choice(free) if free else None

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def gen_block(self, depth: int, count: int) -> None:
        for _ in range(count):
            if self.budget <= 0:
                return
            self.gen_stmt(depth)

    def nested(self, depth: int, count: int) -> None:
        """A block body in a scope of its own."""
        self.push()
        self.gen_block(depth, count)
        self.pop()

    def pick_form(self, depth: int) -> str:
        scalars, arrays = self.visible()
        nested_ok = depth <= self.cfg.max_nesting_depth and self.budget >= 2
        # fresh_name draws from the RNG as it tests a pool, so the pools are
        # tested in the order of the weights
        state = (bool(scalars), bool(arrays), nested_ok, self.helper is not None,
                 *[self.fresh_name(pool) is not None for pool in self.declare_pools])
        forms, cum_weights = self.forms[state]
        if not forms:
            return "decl" if self.fresh_name(self.pool) else "noop"
        return self.rng.choices(forms, cum_weights=cum_weights, k=1)[0]

    def gen_stmt(self, depth: int) -> None:
        form = self.pick_form(depth)
        self.budget -= 1
        rng = self.rng
        if form == "noop":
            return
        if form == "decl":
            name = self.fresh_name(self.pool)
            init = self.expr()  # initializer resolves against the outer state
            self.declare(name)
            self.emit(depth, f"int {name} = {init};")
        elif form == "array_decl":
            name = self.fresh_name(self.array_pool)
            self.declare(name, True)
            elems = ", ".join(self.literal() for _ in range(rng.randrange(1, 4)))
            self.emit(depth, f"int {name}[] = {{{elems}}};")
        elif form == "assign":
            self.emit(depth, f"{rng.choice(self.visible()[0])} = {self.expr()};")
        elif form == "array_assign":
            arr = rng.choice(self.visible()[1])
            idx = rng.choice(self.visible()[0])
            self.emit(depth, f"{arr}[{idx}] = {self.expr()};")
        elif form == "compound":
            self.emit(depth, f"{rng.choice(self.visible()[0])} {rng.choice(_COMPOUND)} {self.expr()};")
        elif form == "incdec":
            self.emit(depth, f"{rng.choice(self.visible()[0])}{rng.choice(('++', '--'))};")
        elif form == "print":
            args = ", ".join(self.atom() for _ in range(rng.randrange(1, 3)))
            self.emit(depth, f"print({args});")
        elif form == "read_assign":
            self.emit(depth, f"{rng.choice(self.visible()[0])} = read();")
        elif form == "call":
            arg = self.atom()
            if rng.random() < 0.4 and self.visible()[0]:
                self.emit(depth, f"{rng.choice(self.visible()[0])} = {self.helper}({arg});")
            else:
                self.emit(depth, f"{self.helper}({arg});")
        elif form == "return":
            scalars = self.visible()[0]
            if scalars and rng.random() < 0.6:
                self.emit(depth, f"return {rng.choice(scalars)};")
            else:
                self.emit(depth, "return;")
        elif form in ("if", "while"):
            self.emit(depth, f"{form} ({self.cond()}) {{")
            self.nested(depth + 1, rng.randrange(1, 3))
            self.emit(depth, "}")
        elif form == "if_else":
            self.emit(depth, f"if ({self.cond()}) {{")
            self.nested(depth + 1, rng.randrange(1, 3))
            self.emit(depth, "} else {")
            self.nested(depth + 1, rng.randrange(1, 3))
            self.emit(depth, "}")
        elif form == "dowhile":
            self.emit(depth, "do {")
            self.nested(depth + 1, rng.randrange(1, 3))
            self.emit(depth, f"}} while ({self.cond()});")
        elif form == "for":
            loop_var = rng.choice(self.pool)
            bound = self.atom()
            self.emit(depth, f"for (int {loop_var} = 0; {loop_var} < {bound}; {loop_var}++) {{")
            self.push()
            self.declare(loop_var)
            self.gen_block(depth + 1, rng.randrange(1, 3))
            self.pop()
            self.emit(depth, "}")
        elif form == "switch":
            self.emit(depth, f"switch ({rng.choice(self.visible()[0])}) {{")
            for value in range(rng.randrange(1, 3)):
                self.emit(depth + 1, f"case {value}: {{")
                self.nested(depth + 2, 1)
                self.emit(depth + 1, "}")
            if rng.random() < 0.6:
                self.emit(depth + 1, "default: {")
                self.nested(depth + 2, 1)
                self.emit(depth + 1, "}")
            self.emit(depth, "}")
        elif form in ("parallel", "interrupt"):
            self.emit(depth, f"{form} {{")
            self.nested(depth + 1, rng.randrange(1, 3))
            self.emit(depth, "}")
        elif form == "block":
            self.emit(depth, "{")
            self.push()
            if rng.random() < 0.7:
                shadow = rng.choice(self.pool)
                self.declare(shadow)
                self.budget -= 1
                self.emit(depth + 1, f"int {shadow} = {self.literal()};")
            self.gen_block(depth + 1, rng.randrange(1, 3))
            self.pop()
            self.emit(depth, "}")

    # ---------- top level ----------

    def run(self) -> str:
        rng = self.rng
        if self.cfg.max_statements <= 0:
            return "void main() {\n}\n"
        if self.cfg.allow_globals and rng.random() < 0.35:
            for i in range(rng.randrange(1, 3)):
                name = f"g{i}"
                self.globals.append(name)
                self.lines.append(f"int {name} = {self.literal()};")
            self.lines.append("")
        if self.cfg.allow_functions and rng.random() < 0.3:
            self.helper = "helper0"
            self.lines.append(f"int {self.helper}(int p0) {{")
            self.push()
            self.declare("p0")
            body = rng.randrange(1, 3)
            saved = self.budget
            self.budget = min(self.budget, 3)
            self.gen_block(1, body)
            if rng.random() < 0.3:
                self.emit(1, f"{self.helper}(p0);")
            self.budget = saved
            self.emit(1, "return p0;")
            self.pop()
            self.lines.append("}")
            self.lines.append("")
        self.lines.append("void main() {")
        self.push()
        self.gen_block(1, self.budget)
        self.pop()
        self.lines.append("}")
        return "\n".join(self.lines) + "\n"


def generate(config: GeneratorConfig) -> str:
    """Generate one parseable, resolvable MiniLang program."""
    return _Gen(config).run()
