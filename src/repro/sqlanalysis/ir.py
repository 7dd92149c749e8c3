"""Statement IR: a small structural model lifted from the token stream.

This is deliberately *not* a SQL grammar.  The lexer already splits a
statement into keywords, identifiers, literals and punctuation; the
parser here segments the token stream into clauses at parenthesis depth
zero and extracts exactly the structure the anti-pattern rules need —
select-list shape, table references and join constraints, a flat
predicate list, ORDER/GROUP/LIMIT presence and locking clauses.  It is
total: any input (including garbage) yields a :class:`StatementIR`, with
``parse_ok=False`` marking the rare internal failure.

:func:`parse_statement` lexes its input once: the statement kind and
the fallback table list come from the same token list the clause
segmentation walks.  It keeps no cache of its own; the per-engine IR
cache lives in :class:`~repro.sqlanalysis.analyzer.SqlAnalyzer`, which
the engine's workload analyzer parses through as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sqltemplate.fingerprint import (
    StatementKind,
    _kind_of,
    _tables_of,
    classify_statement,
    extract_tables,
)
from repro.sqltemplate.tokenizer import Token, TokenKind, tokenize

__all__ = [
    "ColumnRef",
    "Predicate",
    "TableRef",
    "StatementIR",
    "parse_statement",
]


@dataclass(frozen=True)
class ColumnRef:
    """A column reference, optionally qualified by a table name or alias."""

    name: str
    qualifier: str = ""


@dataclass(frozen=True)
class Predicate:
    """One flattened condition from a WHERE or ON clause.

    ``op`` is the comparison operator (``=``, ``<``, ``like``, ``in``,
    ``between``, ``is`` ...).  ``func``/``arith`` describe what wraps the
    column side — the sargability killers.  ``value_kind`` classifies the
    other side; ``value_text`` keeps the literal for rules that need its
    shape (quoted numbers, leading wildcards).
    """

    column: ColumnRef | None
    op: str
    negated: bool = False
    func: str = ""
    arith: bool = False
    value_kind: str = ""
    value_text: str = ""
    value_column: ColumnRef | None = None
    in_list_size: int = 0
    from_join: bool = False

    @property
    def sargable(self) -> bool:
        """Could an index serve this condition as written?

        Equality/range conditions on a bare column are sargable; a
        function or arithmetic on the column, a leading-wildcard LIKE,
        or a quoted-number comparison (implicit conversion) are not.
        """
        if self.column is None or self.func or self.arith:
            return False
        if self.op not in ("=", "<=>", "<", ">", "<=", ">=", "between", "in"):
            return False
        if self.value_kind == "string" and _is_numeric_literal(self.value_text):
            return False
        return self.value_kind in ("number", "string", "placeholder", "list", "column")


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM/UPDATE/INTO position."""

    name: str
    alias: str = ""
    derived: bool = False


@dataclass
class StatementIR:
    """Everything the anti-pattern rules look at for one statement."""

    kind: StatementKind
    raw: str = ""
    select_star: bool = False
    select_items: int = 0
    tables: tuple[TableRef, ...] = ()
    explicit_joins: int = 0
    comma_joins: int = 0
    join_constraints: int = 0
    predicates: tuple[Predicate, ...] = ()
    or_count: int = 0
    has_where: bool = False
    has_group_by: bool = False
    has_order_by: bool = False
    has_limit: bool = False
    for_update: bool = False
    lock_in_share_mode: bool = False
    parse_ok: bool = True
    _alias_map: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables if not t.derived and t.name)

    @property
    def where_predicates(self) -> tuple[Predicate, ...]:
        return tuple(p for p in self.predicates if not p.from_join)

    @property
    def locking(self) -> bool:
        return self.for_update or self.lock_in_share_mode

    def resolve(self, qualifier: str) -> str:
        """Resolve an alias (or table name) to the table name."""
        return self._alias_map.get(qualifier, qualifier)


def _is_numeric_literal(text: str) -> bool:
    body = text.strip("'\"")
    if not body:
        return False
    return body.replace(".", "", 1).isdigit()


_JOIN_MODIFIERS = frozenset({"inner", "left", "right", "outer", "cross"})
_CLAUSE_WORDS = frozenset(
    {"select", "from", "where", "group", "order", "having", "limit",
     "offset", "values", "set", "union"}
)
_COMPARISON_KEYWORDS = frozenset({"like", "in", "between", "is"})


def _depths(tokens: list[Token]) -> list[int]:
    """Parenthesis depth per token; parens carry their *outer* depth."""
    depths: list[int] = []
    depth = 0
    for tok in tokens:
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            depths.append(depth)
            depth += 1
        elif tok.kind is TokenKind.PUNCT and tok.text == ")":
            depth = max(0, depth - 1)
            depths.append(depth)
        else:
            depths.append(depth)
    return depths


def _match_paren(tokens: list[Token], depths: list[int], open_idx: int, end: int) -> int:
    """Index one past the ``)`` matching the ``(`` at ``open_idx``."""
    base = depths[open_idx]
    for k in range(open_idx + 1, end):
        if tokens[k].kind is TokenKind.PUNCT and tokens[k].text == ")" and depths[k] == base:
            return k + 1
    return end


@dataclass
class _Side:
    """One side of a comparison, summarised."""

    column: ColumnRef | None = None
    func: str = ""
    arith: bool = False
    kind: str = ""
    text: str = ""
    list_size: int = 0


def _inner_column(tokens: list[Token], start: int, end: int) -> ColumnRef | None:
    """First bare column reference inside a function-call argument list."""
    k = start
    while k < end:
        tok = tokens[k]
        if tok.kind is TokenKind.IDENTIFIER:
            if k + 2 < end and tokens[k + 1].text == "." and tokens[k + 2].kind is TokenKind.IDENTIFIER:
                return ColumnRef(name=tokens[k + 2].text, qualifier=tok.text)
            if k + 1 < end and tokens[k + 1].text == "(":
                k += 1
                continue
            return ColumnRef(name=tok.text)
        k += 1
    return None


def _parse_side(tokens: list[Token], depths: list[int], s: int, e: int, base: int) -> _Side:
    side = _Side()
    k = s
    while k < e:
        tok, d = tokens[k], depths[k]
        if d > base:
            k += 1
            continue
        if tok.kind is TokenKind.KEYWORD:
            w = tok.text.lower()
            if w == "null":
                side.kind = side.kind or "null"
            elif w in ("count", "sum", "avg", "min", "max", "if", "ifnull", "coalesce"):
                # Keyword-classified functions (COUNT(c) etc.) still wrap
                # their argument column.
                if k + 1 < e and tokens[k + 1].text == "(":
                    close = _match_paren(tokens, depths, k + 1, e)
                    side.func = side.func or w
                    side.kind = side.kind or "func"
                    if side.column is None:
                        side.column = _inner_column(tokens, k + 2, close - 1)
                    k = close
                    continue
            k += 1
            continue
        if tok.kind is TokenKind.IDENTIFIER:
            qualifier, name = "", tok.text
            if k + 2 < e and tokens[k + 1].text == "." and tokens[k + 2].kind is TokenKind.IDENTIFIER:
                qualifier, name = name, tokens[k + 2].text
                k += 2
            if k + 1 < e and tokens[k + 1].kind is TokenKind.PUNCT and tokens[k + 1].text == "(":
                close = _match_paren(tokens, depths, k + 1, e)
                side.func = side.func or name
                side.kind = side.kind or "func"
                if side.column is None:
                    side.column = _inner_column(tokens, k + 2, close - 1)
                k = close
                continue
            if side.column is None:
                side.column = ColumnRef(name=name, qualifier=qualifier)
            side.kind = side.kind or "column"
            k += 1
            continue
        if tok.kind is TokenKind.NUMBER:
            side.kind = side.kind or "number"
            side.text = side.text or tok.text
        elif tok.kind is TokenKind.STRING:
            side.kind = side.kind or "string"
            side.text = side.text or tok.text
        elif tok.kind is TokenKind.PLACEHOLDER:
            side.kind = side.kind or "placeholder"
            side.text = side.text or tok.text
        elif tok.kind is TokenKind.OPERATOR and any(c in tok.text for c in "+-*/%"):
            # Arithmetic counts only when a column participates in it.
            if side.kind in ("", "column"):
                side.arith = True
        elif tok.kind is TokenKind.PUNCT and tok.text == "(":
            close = _match_paren(tokens, depths, k, e)
            first = k + 1
            if first < close - 1 and tokens[first].kind is TokenKind.KEYWORD and tokens[first].text.lower() == "select":
                side.kind = side.kind or "subquery"
            else:
                items = 1 if close - 1 > first else 0
                for m in range(first, close - 1):
                    if tokens[m].kind is TokenKind.PUNCT and tokens[m].text == "," and depths[m] == base + 1:
                        items += 1
                side.kind = side.kind or "list"
                side.list_size = max(side.list_size, items)
            k = close
            continue
        k += 1
    return side


def _predicate_from_atom(
    tokens: list[Token], depths: list[int], s: int, e: int, base: int, from_join: bool
) -> Predicate | None:
    negated = False
    while s < e and tokens[s].kind is TokenKind.KEYWORD and tokens[s].text.lower() == "not":
        negated = not negated
        s += 1
    op_idx, op = -1, ""
    for k in range(s, e):
        if depths[k] != base:
            continue
        tok = tokens[k]
        if tok.kind is TokenKind.OPERATOR and any(c in tok.text for c in "=<>!"):
            op_idx, op = k, tok.text
            break
        if tok.kind is TokenKind.KEYWORD and tok.text.lower() in _COMPARISON_KEYWORDS:
            op_idx, op = k, tok.text.lower()
            break
    if op_idx < 0:
        return None
    # `col NOT LIKE x` / `col NOT IN (...)`: the NOT sits left of the op.
    for k in range(s, op_idx):
        if tokens[k].kind is TokenKind.KEYWORD and tokens[k].text.lower() == "not":
            negated = not negated
    left = _parse_side(tokens, depths, s, op_idx, base)
    right = _parse_side(tokens, depths, op_idx + 1, e, base)
    return Predicate(
        column=left.column,
        op=op,
        negated=negated,
        func=left.func,
        arith=left.arith,
        value_kind=right.kind,
        value_text=right.text,
        value_column=right.column if right.kind == "column" else None,
        in_list_size=right.list_size if op == "in" else 0,
        from_join=from_join,
    )


def _parse_condition(
    tokens: list[Token], depths: list[int], s: int, e: int, base: int, from_join: bool
) -> tuple[list[Predicate], int]:
    """Split a condition span on AND/OR into atoms; recurse into groups."""
    preds: list[Predicate] = []
    or_count = 0
    atoms: list[tuple[int, int]] = []
    atom_start = s
    pending_between = False
    for k in range(s, e):
        tok = tokens[k]
        if depths[k] != base or tok.kind is not TokenKind.KEYWORD:
            continue
        w = tok.text.lower()
        if w == "between":
            pending_between = True
        elif w == "and":
            if pending_between:
                pending_between = False
            else:
                atoms.append((atom_start, k))
                atom_start = k + 1
        elif w == "or":
            or_count += 1
            atoms.append((atom_start, k))
            atom_start = k + 1
    atoms.append((atom_start, e))
    for a_s, a_e in atoms:
        while a_s < a_e and tokens[a_s].kind is TokenKind.KEYWORD and tokens[a_s].text.lower() == "not":
            a_s += 1
        if (
            a_s < a_e
            and tokens[a_s].kind is TokenKind.PUNCT
            and tokens[a_s].text == "("
            and _match_paren(tokens, depths, a_s, a_e) == a_e
            and tokens[a_e - 1].text == ")"
        ):
            inner_preds, inner_ors = _parse_condition(
                tokens, depths, a_s + 1, a_e - 1, base + 1, from_join
            )
            preds.extend(inner_preds)
            or_count += inner_ors
            continue
        pred = _predicate_from_atom(tokens, depths, a_s, a_e, base, from_join)
        if pred is not None:
            preds.append(pred)
    return preds, or_count


def _parse_table_refs(
    tokens: list[Token], depths: list[int], s: int, e: int
) -> tuple[list[TableRef], int, int, int, list[tuple[int, int]]]:
    """Parse a FROM-like span: table refs, join shape, ON-clause spans."""
    tables: list[TableRef] = []
    explicit_joins = comma_joins = constraints = 0
    on_spans: list[tuple[int, int]] = []
    expect_table = True
    i = s
    while i < e:
        tok, d = tokens[i], depths[i]
        if d > 0:
            i += 1
            continue
        if tok.kind is TokenKind.KEYWORD:
            w = tok.text.lower()
            if w == "join":
                explicit_joins += 1
                expect_table = True
            elif w == "on":
                constraints += 1
                j = i + 1
                while j < e:
                    t2 = tokens[j]
                    if (
                        depths[j] == 0
                        and t2.kind is TokenKind.KEYWORD
                        and t2.text.lower() in ({"join"} | _JOIN_MODIFIERS)
                    ):
                        break
                    j += 1
                on_spans.append((i + 1, j))
                i = j
                continue
            elif w == "using":
                constraints += 1
            i += 1
            continue
        if tok.kind is TokenKind.PUNCT and tok.text == ",":
            comma_joins += 1
            expect_table = True
            i += 1
            continue
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            if expect_table:
                tables.append(TableRef(name="", derived=True))
                expect_table = False
            i = _match_paren(tokens, depths, i, e)
            continue
        if tok.kind is TokenKind.IDENTIFIER:
            if expect_table:
                name = tok.text
                if i + 2 < e and tokens[i + 1].text == "." and tokens[i + 2].kind is TokenKind.IDENTIFIER:
                    name = tokens[i + 2].text
                    i += 2
                alias = ""
                j = i + 1
                if j < e and tokens[j].kind is TokenKind.KEYWORD and tokens[j].text.lower() == "as":
                    j += 1
                if j < e and tokens[j].kind is TokenKind.IDENTIFIER and depths[j] == 0:
                    alias = tokens[j].text
                    i = j
                tables.append(TableRef(name=name, alias=alias))
                expect_table = False
            i += 1
            continue
        i += 1
    return tables, explicit_joins, comma_joins, constraints, on_spans


def parse_statement(sql: str) -> StatementIR:
    """Lift a statement (template or raw) into a :class:`StatementIR`.

    Total by construction: internal failures degrade to an IR with
    ``parse_ok=False`` and whatever the cheap classifiers recovered.
    """
    try:
        return _parse(sql)
    except Exception:
        ir = StatementIR(kind=classify_statement(sql), raw=sql, parse_ok=False)
        ir.tables = tuple(TableRef(name=t) for t in extract_tables(sql))
        ir._alias_map = {t.name: t.name for t in ir.tables}
        return ir


def _parse(sql: str) -> StatementIR:
    tokens = tokenize(sql)
    # Statement terminators carry no structure; stripping them keeps the
    # clause spans clean for inputs like ``SELECT ... ;``.  The kind and
    # the fallback tables read the same tokens: a trailing ``;`` changes
    # neither.
    while tokens and tokens[-1].text == ";":
        tokens = tokens[:-1]
    if not tokens:
        # Empty / whitespace-only / comment-only input: a well-formed
        # empty IR, not an error — the parser is total by contract.
        return StatementIR(kind=StatementKind.OTHER, raw=sql)
    depths = _depths(tokens)
    kind = _kind_of(tokens)
    ir = StatementIR(kind=kind, raw=sql)
    n = len(tokens)

    # Top-level clause markers, in statement order.
    markers: list[tuple[str, int]] = []
    for idx in range(n):
        tok = tokens[idx]
        if depths[idx] == 0 and tok.kind is TokenKind.KEYWORD:
            w = tok.text.lower()
            if w in _CLAUSE_WORDS or w in ("update", "into"):
                markers.append((w, idx))

    def span_of(word: str) -> tuple[int, int] | None:
        for pos, (w, idx) in enumerate(markers):
            if w == word:
                end = markers[pos + 1][1] if pos + 1 < len(markers) else n
                return idx + 1, end
        return None

    ir.has_where = span_of("where") is not None
    ir.has_limit = span_of("limit") is not None
    for word, flag in (("group", "has_group_by"), ("order", "has_order_by")):
        span = span_of(word)
        if span is not None:
            setattr(ir, flag, True)

    # Locking tail: FOR UPDATE / FOR SHARE / LOCK IN SHARE MODE.
    words = [
        tok.text.lower()
        for tok, d in zip(tokens, depths)
        if d == 0 and tok.kind is TokenKind.KEYWORD
    ]
    for a, b in zip(words, words[1:]):
        if a == "for" and b == "update":
            ir.for_update = True
        if a == "for" and b == "share":
            ir.lock_in_share_mode = True
    for quad in zip(words, words[1:], words[2:], words[3:]):
        if quad == ("lock", "in", "share", "mode"):
            ir.lock_in_share_mode = True

    # Table references.
    table_span = None
    if kind is StatementKind.UPDATE:
        span = span_of("update")
        set_span = span_of("set")
        if span is not None:
            table_span = (span[0], set_span[0] - 1 if set_span else span[1])
    elif kind is StatementKind.INSERT:
        table_span = span_of("into")
    if table_span is None:
        table_span = span_of("from")
    if table_span is not None:
        tables, joins, commas, constraints, on_spans = _parse_table_refs(
            tokens, depths, *table_span
        )
        ir.tables = tuple(tables)
        ir.explicit_joins = joins
        ir.comma_joins = commas
        ir.join_constraints = constraints
    else:
        on_spans = []
        ir.tables = tuple(TableRef(name=t) for t in _tables_of(tokens))
    ir._alias_map = {}
    for t in ir.tables:
        if t.name:
            ir._alias_map[t.name] = t.name
            if t.alias:
                ir._alias_map[t.alias] = t.name

    # Select list shape.
    if kind is StatementKind.SELECT:
        sel = span_of("select")
        frm = span_of("from")
        if sel is not None:
            sel_end = frm[0] - 1 if frm is not None else sel[1]
            items = 1 if sel_end > sel[0] else 0
            prev_text = "select"
            for k in range(sel[0], sel_end):
                tok = tokens[k]
                if depths[k] != 0:
                    continue
                if tok.kind is TokenKind.PUNCT and tok.text == ",":
                    items += 1
                if tok.kind is TokenKind.OPERATOR and tok.text == "*" and prev_text in ("select", ",", ".", "distinct"):
                    ir.select_star = True
                prev_text = tok.text.lower()
            ir.select_items = items

    # Predicates: WHERE + HAVING + every ON clause.
    preds: list[Predicate] = []
    or_count = 0
    for word in ("where", "having"):
        span = span_of(word)
        if span is not None:
            got, ors = _parse_condition(tokens, depths, span[0], span[1], 0, False)
            preds.extend(got)
            or_count += ors
    for o_s, o_e in on_spans:
        got, ors = _parse_condition(tokens, depths, o_s, o_e, 0, True)
        preds.extend(got)
        or_count += ors
    ir.predicates = tuple(preds)
    ir.or_count = or_count
    return ir
