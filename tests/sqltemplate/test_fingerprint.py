"""Tests for SQL tokenization, normalization and fingerprinting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqltemplate import (
    Fingerprint,
    StatementKind,
    TemplateCatalog,
    TokenKind,
    classify_statement,
    extract_tables,
    fingerprint,
    normalize_statement,
    sql_id,
    tokenize,
)


class TestTokenizer:
    def test_basic_select(self):
        toks = tokenize("SELECT * FROM t WHERE id = 5")
        kinds = [t.kind for t in toks]
        assert TokenKind.KEYWORD in kinds
        assert TokenKind.NUMBER in kinds

    def test_string_literal_with_escape(self):
        toks = tokenize(r"SELECT 'it\'s' FROM t")
        strings = [t for t in toks if t.kind == TokenKind.STRING]
        assert len(strings) == 1

    def test_doubled_quote_escape(self):
        toks = tokenize("SELECT 'it''s' FROM t")
        strings = [t for t in toks if t.kind == TokenKind.STRING]
        assert len(strings) == 1

    def test_line_comment_stripped(self):
        toks = tokenize("SELECT 1 -- comment\nFROM t")
        texts = [t.text for t in toks]
        assert "comment" not in texts

    def test_block_comment_stripped(self):
        toks = tokenize("SELECT /* hint */ 1 FROM t")
        assert all("hint" not in t.text for t in toks)

    def test_backquoted_identifier(self):
        toks = tokenize("SELECT `weird col` FROM `t`")
        idents = [t.text for t in toks if t.kind == TokenKind.IDENTIFIER]
        assert "weird col" in idents and "t" in idents

    def test_decimal_and_exponent_numbers(self):
        toks = tokenize("SELECT 1.5, 2e10, 0xFF")
        nums = [t for t in toks if t.kind == TokenKind.NUMBER]
        assert len(nums) == 3

    def test_never_hangs_on_strange_chars(self):
        toks = tokenize("SELECT @ # [ ] {} FROM t")
        assert len(toks) > 0

    @given(st.text(max_size=200))
    @settings(max_examples=80)
    def test_property_total_on_arbitrary_input(self, text):
        # The tokenizer must terminate and never raise on any input.
        tokenize(text)


class TestNormalize:
    def test_paper_example(self):
        # Paper Def II.3: the three literal variants share one template.
        queries = [
            "SELECT * FROM user_table WHERE uid = 123456",
            "SELECT * FROM user_table WHERE uid = 654321",
            "SELECT * FROM user_table WHERE uid = 123321",
        ]
        templates = {normalize_statement(q) for q in queries}
        assert templates == {"SELECT * FROM user_table WHERE uid = ?"}

    def test_string_literals_replaced(self):
        t = normalize_statement("SELECT * FROM t WHERE name = 'alice'")
        assert "'alice'" not in t
        assert "?" in t

    def test_in_list_collapsed(self):
        a = normalize_statement("SELECT * FROM t WHERE id IN (1, 2, 3)")
        b = normalize_statement("SELECT * FROM t WHERE id IN (7)")
        assert a == b

    def test_in_subquery_not_collapsed(self):
        t = normalize_statement("SELECT * FROM t WHERE id IN (SELECT id FROM u)")
        assert "SELECT" in t.split("IN", 1)[1]

    def test_negative_in_list_collapsed(self):
        # Signed literals lex as OPERATOR + NUMBER; the collapse must
        # still see a pure value list, or list size leaks into the id.
        a = normalize_statement("SELECT * FROM t WHERE id IN (-1, -2, -3)")
        b = normalize_statement("SELECT * FROM t WHERE id IN (-9)")
        c = normalize_statement("SELECT * FROM t WHERE id IN (4)")
        assert a == b == c

    def test_null_in_list_collapsed(self):
        a = normalize_statement("SELECT * FROM t WHERE id IN (1, NULL, 3)")
        b = normalize_statement("SELECT * FROM t WHERE id IN (2)")
        assert a == b

    def test_large_in_list_same_id_regardless_of_size(self):
        small = fingerprint("SELECT c0 FROM t WHERE id IN (1, 2)")
        large = fingerprint(
            "SELECT c0 FROM t WHERE id IN (" +
            ", ".join(str(i) for i in range(64)) + ")"
        )
        assert small.sql_id == large.sql_id

    def test_column_list_not_collapsed(self):
        t = normalize_statement("SELECT * FROM t WHERE id IN (a, b, c)")
        assert "a" in t and "b" in t and "c" in t

    def test_keywords_uppercased(self):
        t = normalize_statement("select * from t where x = 1")
        assert t.startswith("SELECT")
        assert "FROM" in t and "WHERE" in t

    def test_identifier_case_preserved(self):
        t = normalize_statement("SELECT * FROM MyTable")
        assert "MyTable" in t

    def test_whitespace_canonicalised(self):
        a = normalize_statement("SELECT  *   FROM t WHERE x=1")
        b = normalize_statement("SELECT * FROM t WHERE x = 1")
        assert a == b


class TestSqlId:
    def test_stable(self):
        t = "SELECT * FROM t WHERE x = ?"
        assert sql_id(t) == sql_id(t)

    def test_distinct_templates_distinct_ids(self):
        assert sql_id("SELECT * FROM a") != sql_id("SELECT * FROM b")

    def test_length_and_charset(self):
        sid = sql_id("SELECT 1", length=8)
        assert len(sid) == 8
        assert sid == sid.upper()
        int(sid, 16)  # must be valid hex


class TestClassify:
    @pytest.mark.parametrize(
        "sql,kind",
        [
            ("SELECT * FROM t", StatementKind.SELECT),
            ("INSERT INTO t VALUES (1)", StatementKind.INSERT),
            ("REPLACE INTO t VALUES (1)", StatementKind.INSERT),
            ("UPDATE t SET x = 1", StatementKind.UPDATE),
            ("DELETE FROM t WHERE x = 1", StatementKind.DELETE),
            ("ALTER TABLE t ADD COLUMN c INT", StatementKind.DDL),
            ("CREATE INDEX i ON t (c)", StatementKind.DDL),
            ("DROP TABLE t", StatementKind.DDL),
            ("TRUNCATE TABLE t", StatementKind.DDL),
            ("ROLLBACK", StatementKind.TRANSACTION),
            ("COMMIT", StatementKind.TRANSACTION),
            ("SET autocommit = 1", StatementKind.OTHER),
        ],
    )
    def test_classification(self, sql, kind):
        assert classify_statement(sql) is kind

    def test_kind_properties(self):
        assert StatementKind.UPDATE.takes_row_locks
        assert not StatementKind.SELECT.takes_row_locks
        assert StatementKind.DDL.takes_mdl_exclusive
        assert not StatementKind.UPDATE.takes_mdl_exclusive


class TestExtractTables:
    def test_select_from(self):
        assert extract_tables("SELECT * FROM sales WHERE x = 1") == ("sales",)

    def test_join(self):
        tabs = extract_tables("SELECT * FROM a JOIN b ON a.id = b.id")
        assert set(tabs) == {"a", "b"}

    def test_update(self):
        assert extract_tables("UPDATE orders SET x = 1") == ("orders",)

    def test_insert_into(self):
        assert extract_tables("INSERT INTO logs VALUES (1)") == ("logs",)

    def test_ddl_with_if_exists(self):
        assert extract_tables("DROP TABLE IF EXISTS tmp") == ("tmp",)

    def test_alter_table(self):
        assert extract_tables("ALTER TABLE sales ADD COLUMN c INT") == ("sales",)

    def test_no_tables(self):
        assert extract_tables("SELECT 1") == ()


class TestFingerprint:
    def test_roundtrip(self):
        fp = fingerprint("UPDATE sales SET qty = 7 WHERE id = 3")
        assert fp.kind is StatementKind.UPDATE
        assert fp.tables == ("sales",)
        assert "?" in fp.template
        assert fp.sql_id == sql_id(fp.template)

    def test_same_template_same_id(self):
        a = fingerprint("SELECT * FROM t WHERE id = 1")
        b = fingerprint("SELECT * FROM t WHERE id = 99")
        assert a.sql_id == b.sql_id


class TestCatalog:
    def test_register_statement_aggregates(self):
        cat = TemplateCatalog()
        cat.register_statement("SELECT * FROM t WHERE id = 1", timestamp=100)
        info = cat.register_statement("SELECT * FROM t WHERE id = 2", timestamp=90)
        assert len(cat) == 1
        assert info.query_count == 2
        assert info.first_seen == 90

    def test_templates_on_table(self):
        cat = TemplateCatalog()
        cat.register_statement("SELECT * FROM a WHERE id = 1")
        cat.register_statement("UPDATE b SET x = 1")
        assert [i.kind for i in cat.templates_on_table("b")] == [StatementKind.UPDATE]

    def test_membership_and_lookup(self):
        cat = TemplateCatalog()
        info = cat.register_statement("SELECT * FROM a WHERE id = 1")
        assert info.sql_id in cat
        assert cat[info.sql_id] is info
        assert cat.get("DEADBEEF") is None

    def test_register_template_direct(self):
        cat = TemplateCatalog()
        info = cat.register_template(
            "ABCD1234", "SELECT * FROM x WHERE id = ?",
            StatementKind.SELECT, ("x",), first_seen=5,
        )
        assert cat["ABCD1234"] is info
        # Re-registration returns the same record.
        again = cat.register_template(
            "ABCD1234", "SELECT * FROM x WHERE id = ?",
            StatementKind.SELECT, ("x",),
        )
        assert again is info
        assert len(cat) == 1

    def test_iteration(self):
        cat = TemplateCatalog()
        cat.register_statement("SELECT * FROM a")
        cat.register_statement("SELECT * FROM b")
        assert len(list(cat)) == 2


class TestValuesCollapse:
    def test_multirow_insert_collapsed(self):
        one = normalize_statement("INSERT INTO t (a, b) VALUES (1, 'x')")
        many = normalize_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')"
        )
        assert one == many

    def test_different_row_widths_same_digest(self):
        a = normalize_statement("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        b = normalize_statement(
            "INSERT INTO t (a, b) VALUES (1, 2), (3, 4), (5, 6), (7, 8)"
        )
        assert sql_id(a) == sql_id(b)

    def test_single_row_untouched(self):
        t = normalize_statement("INSERT INTO t (a) VALUES (42)")
        assert t.count("?") == 1

    def test_values_with_expression_not_collapsed(self):
        # A second "row" containing a function call is not a plain batch
        # row and must survive.
        t = normalize_statement("INSERT INTO t (a) VALUES (1), (now())")
        assert "now" in t

    def test_idempotent_after_collapse(self):
        raw = "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
        once = normalize_statement(raw)
        assert normalize_statement(once) == once


#: SQL-shaped fragments: keywords, identifiers, literals of every lexed
#: kind, comments and punctuation, so drawn statements reach the IN-list,
#: VALUES, LIKE-wildcard and table-extraction branches.
_FRAGMENTS = (
    "SELECT", "INSERT", "REPLACE", "UPDATE", "DELETE", "CREATE", "DROP",
    "TABLE", "IF", "EXISTS", "BEGIN", "SET", "FROM", "JOIN", "INTO", "WHERE",
    "VALUES", "IN", "LIKE", "NOT", "NULL", "AND", "OR", "t", "orders",
    "`odd name`", "c0", "*", "=", "-", ",", ".", ";", "(", ")", "?", "42",
    "-7", "1.5e3", "0x1F", "b'01'", "'a''b'", "'%abc'", "\"q\"", "-- note\n",
    "/* c */", "#x\n",
)


class TestOneLex:
    """``fingerprint`` builds everything from one lex; the IR agrees."""

    @given(
        st.one_of(
            st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map(" ".join),
            st.text(max_size=120),
        )
    )
    @settings(max_examples=150)
    def test_fingerprint_composes_the_public_wrappers(self, sql):
        from repro.sqlanalysis import parse_statement

        template = normalize_statement(sql)
        assert fingerprint(sql) == Fingerprint(
            sql_id=sql_id(template),
            template=template,
            kind=classify_statement(sql),
            tables=extract_tables(sql),
        )
        assert parse_statement(sql).kind == classify_statement(sql)
