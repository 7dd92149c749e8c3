"""Statement normalization and SQL_ID fingerprinting (paper Definition II.3).

``normalize_statement`` rewrites a SQL statement into its template form —
literals become ``?``, ``IN (...)`` lists collapse to ``IN (?)``, keywords
are upper-cased, whitespace is canonicalised.  ``sql_id`` hashes the
template into the short hex identifier the paper's query logs show
(e.g. ``E6DC``-style ids in Fig. 1).

Each public function that reads a statement lexes it exactly once.  The
work is done by private helpers that take the token list, so :func:`fingerprint` builds
the template, the kind and the tables from one ``tokenize`` call, and
:func:`normalize_statement`, :func:`classify_statement` and
:func:`extract_tables` are thin wrappers that lex and delegate.  The IR
parser (:mod:`repro.sqlanalysis.ir`) reuses the same helpers on the
tokens it lexed.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass

from repro.sqltemplate.tokenizer import Token, TokenKind, tokenize

__all__ = [
    "StatementKind",
    "Fingerprint",
    "WILDCARD_PLACEHOLDER",
    "normalize_statement",
    "sql_id",
    "fingerprint",
    "classify_statement",
    "extract_tables",
]


class StatementKind(enum.Enum):
    """Coarse statement classification used by the lock and repair models."""

    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    DDL = "ddl"
    TRANSACTION = "transaction"
    OTHER = "other"

    @property
    def is_write(self) -> bool:
        return self in (StatementKind.INSERT, StatementKind.UPDATE, StatementKind.DELETE)

    @property
    def takes_row_locks(self) -> bool:
        return self.is_write

    @property
    def takes_mdl_exclusive(self) -> bool:
        return self is StatementKind.DDL


_DDL_LEADS = {"create", "alter", "drop", "truncate", "rename"}
_TXN_LEADS = {"begin", "commit", "rollback"}


#: Placeholder kept for leading-wildcard LIKE patterns: `LIKE '%abc'` is a
#: different execution plan (full scan) than `LIKE 'abc%'` (range scan), so
#: the template must not erase that distinction.  The marker re-lexes as a
#: string starting with `%`, keeping normalization idempotent.
WILDCARD_PLACEHOLDER = "'%?'"


def _leading_wildcard(tok: Token) -> bool:
    if tok.kind != TokenKind.STRING or len(tok.text) < 2:
        return False
    return tok.text[1:].startswith("%")


def _normalized_tokens(tokens: list[Token]) -> list[Token]:
    """Replace literal tokens with placeholders."""
    out: list[Token] = []
    prev_like = False
    for tok in tokens:
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING):
            if prev_like and _leading_wildcard(tok):
                out.append(Token(TokenKind.PLACEHOLDER, WILDCARD_PLACEHOLDER))
            else:
                out.append(Token(TokenKind.PLACEHOLDER, "?"))
        else:
            out.append(tok)
        prev_like = tok.kind == TokenKind.KEYWORD and tok.text.lower() == "like"
    return out


def _collapse_in_lists(tokens: list[Token]) -> list[Token]:
    """Collapse ``IN ( ?, ?, ? )`` into ``IN ( ? )``.

    Multi-valued IN lists otherwise explode one logical template into many
    distinct digests — the classic digest-cardinality problem.
    """
    out: list[Token] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        is_in = tok.kind == TokenKind.KEYWORD and tok.text.lower() == "in"
        if is_in and i + 1 < n and tokens[i + 1].text == "(":
            # Scan the parenthesised list; collapse only if it is purely
            # literal values — placeholders, NULL, unary signs and commas.
            # Subqueries and column references must keep their shape.
            j = i + 2
            only_placeholders = True
            has_value = False
            depth = 1
            while j < n and depth > 0:
                t = tokens[j]
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif t.kind == TokenKind.PLACEHOLDER or (
                    t.kind == TokenKind.KEYWORD and t.text.lower() == "null"
                ):
                    has_value = True
                elif t.kind == TokenKind.OPERATOR and t.text in ("+", "-"):
                    pass  # sign on a numeric literal: IN (-1, -2)
                elif t.text != ",":
                    only_placeholders = False
                j += 1
            if only_placeholders and has_value and j < n:
                out.append(tok)
                out.append(Token(TokenKind.PUNCT, "("))
                out.append(Token(TokenKind.PLACEHOLDER, "?"))
                out.append(Token(TokenKind.PUNCT, ")"))
                i = j + 1
                continue
        out.append(tok)
        i += 1
    return out


def _collapse_values_rows(tokens: list[Token]) -> list[Token]:
    """Collapse multi-row ``VALUES (?,?), (?,?), ...`` into one row.

    Batch INSERTs otherwise mint a distinct digest per batch size, the
    same cardinality explosion as multi-valued IN lists.
    """
    out: list[Token] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        out.append(tok)
        i += 1
        if not (tok.kind == TokenKind.KEYWORD and tok.text.lower() == "values"):
            continue
        # Copy the first parenthesised row verbatim.
        if i < n and tokens[i].text == "(":
            depth = 0
            while i < n:
                out.append(tokens[i])
                if tokens[i].text == "(":
                    depth += 1
                elif tokens[i].text == ")":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
            # Skip any further ", ( ... )" rows made purely of
            # placeholders and commas.
            while (
                i + 1 < n
                and tokens[i].text == ","
                and tokens[i + 1].text == "("
            ):
                j = i + 1
                depth = 0
                simple = True
                while j < n:
                    t = tokens[j]
                    if t.text == "(":
                        depth += 1
                    elif t.text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif t.kind not in (TokenKind.PLACEHOLDER,) and t.text != ",":
                        simple = False
                    j += 1
                if not simple or j >= n:
                    break
                i = j + 1
    return out


_PLAIN_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _template_of(tokens: list[Token]) -> str:
    """The template text of a lexed statement."""
    tokens = _collapse_values_rows(_collapse_in_lists(_normalized_tokens(tokens)))
    parts: list[str] = []
    for tok in tokens:
        text = tok.text.upper() if tok.kind == TokenKind.KEYWORD else tok.text
        if tok.kind == TokenKind.IDENTIFIER and not _PLAIN_IDENTIFIER.match(text):
            # Identifiers that would not re-lex as identifiers (spaces,
            # leading digits) keep their backquotes in the template.
            text = f"`{text}`"
        if tok.kind == TokenKind.PUNCT and text in (",", ".", ";", ")"):
            if parts and text != ")":
                parts[-1] = parts[-1] + text
                continue
            if text == ")":
                if parts:
                    parts[-1] = parts[-1] + text
                    continue
        if parts and parts[-1].endswith(("(", ".")):
            parts[-1] = parts[-1] + text
            continue
        parts.append(text)
    return " ".join(parts)


def normalize_statement(sql: str) -> str:
    """Return the SQL template text for a statement.

    >>> normalize_statement("SELECT * FROM user_table WHERE uid = 123456")
    'SELECT * FROM user_table WHERE uid = ?'
    """
    return _template_of(tokenize(sql))


def sql_id(template_text: str, length: int = 8) -> str:
    """Stable hex SQL_ID for a template (MD5-derived, upper-case)."""
    digest = hashlib.md5(template_text.encode("utf-8")).hexdigest()
    return digest[:length].upper()


def _kind_of(tokens: list[Token]) -> StatementKind:
    """The :class:`StatementKind` of a lexed statement (its leading word)."""
    for tok in tokens:
        word = tok.text.lower()
        if tok.kind not in (TokenKind.KEYWORD, TokenKind.IDENTIFIER):
            continue
        if word == "select":
            return StatementKind.SELECT
        if word == "insert" or word == "replace":
            return StatementKind.INSERT
        if word == "update":
            return StatementKind.UPDATE
        if word == "delete":
            return StatementKind.DELETE
        if word in _DDL_LEADS:
            return StatementKind.DDL
        if word in _TXN_LEADS:
            return StatementKind.TRANSACTION
        if word == "set":
            return StatementKind.OTHER
        break
    return StatementKind.OTHER


def classify_statement(sql: str) -> StatementKind:
    """Classify a statement (or template) into a :class:`StatementKind`."""
    return _kind_of(tokenize(sql))


def _tables_of(tokens: list[Token]) -> tuple[str, ...]:
    """Table names named after FROM/JOIN/UPDATE/INTO/TABLE, in order."""
    tables: list[str] = []
    expect_table = False
    for tok in tokens:
        word = tok.text.lower()
        if tok.kind == TokenKind.KEYWORD and word in ("from", "join", "update", "into", "table"):
            expect_table = True
            continue
        if expect_table:
            if tok.kind == TokenKind.IDENTIFIER:
                if tok.text not in tables:
                    tables.append(tok.text)
                expect_table = False
            elif tok.kind == TokenKind.KEYWORD and word in ("if", "exists", "not"):
                continue  # e.g. DROP TABLE IF EXISTS t
            else:
                expect_table = False
    return tuple(tables)


def extract_tables(sql: str) -> tuple[str, ...]:
    """Best-effort extraction of the table names a statement touches.

    Looks for identifiers following ``FROM``, ``JOIN``, ``UPDATE``,
    ``INTO`` and ``TABLE`` keywords — which covers the DML/DDL shapes the
    simulator generates, and is the same heuristic production digest
    pipelines start from.
    """
    return _tables_of(tokenize(sql))


@dataclass(frozen=True)
class Fingerprint:
    """Full fingerprint of a SQL statement."""

    sql_id: str
    template: str
    kind: StatementKind
    tables: tuple[str, ...]


def fingerprint(sql: str) -> Fingerprint:
    """Normalize, hash and classify a statement from one lex.

    >>> fp = fingerprint("UPDATE orders SET state = 2 WHERE id IN (7, 8, 9)")
    >>> fp.template
    'UPDATE orders SET state = ? WHERE id IN (?)'
    >>> fp.sql_id, fp.kind, fp.tables
    ('8AE8633A', <StatementKind.UPDATE: 'update'>, ('orders',))
    """
    tokens = tokenize(sql)
    template = _template_of(tokens)
    return Fingerprint(
        sql_id=sql_id(template),
        template=template,
        kind=_kind_of(tokens),
        tables=_tables_of(tokens),
    )
