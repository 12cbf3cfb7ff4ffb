import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum.errors import ParseFailure
from expsum.frontends import (
    Token,
    TypeScriptLikeFrontend,
    _closer,
    _closers,
    harvest_annotations,
    lex,
)


@pytest.fixture
def frontend():
    return TypeScriptLikeFrontend()


class TestTokenizer:
    def test_strings_and_comments_are_atomic(self):
        tokens = lex("f('a;b') /* x { */ // tail\n g")
        kinds = [t.kind for t in tokens]
        assert kinds == ["ident", "punct", "string", "punct", "block_comment",
                         "line_comment", "ident"]

    def test_unterminated_string_fails(self):
        with pytest.raises(ParseFailure):
            lex("let s = 'oops")

    def test_multi_char_operators(self):
        texts = [t.text for t in lex("a === b != c += 1")]
        assert texts == ["a", "===", "b", "!=", "c", "+=", "1"]


class TestAnnotations:
    def test_block_comment_tags(self):
        tokens = lex("/**\n * @since API version 9\n * @deprecated\n */")
        tags = harvest_annotations(tokens)
        assert tags == {"@since": "API version 9", "@deprecated": "true"}

    def test_multiline_tag_value(self):
        tokens = lex(
            "/**\n * @officialdoc Monitor power consumption.\n"
            " * Frequent invocation may increase overhead.\n * @since 9\n */"
        )
        tags = harvest_annotations(tokens)
        assert tags["@officialdoc"] == (
            "Monitor power consumption. Frequent invocation may increase overhead."
        )
        assert tags["@since"] == "9"


class TestSignatureParsing:
    def test_optional_and_default_params(self, frontend):
        m = frontend.parse(
            "function f(a: string[], b?: number, c: number = 0): void {}", "f.ts"
        )
        assert [(p.name, p.type_annotation, p.default_value) for p in m.parameters] == [
            ("a", "string[]", None),
            ("b", "?number", None),
            ("c", "number", "0"),
        ]

    def test_destructured_param_has_empty_name(self, frontend):
        m = frontend.parse("function f({a, b}: Options): void {}", "f.ts")
        assert m.parameters[0].name == ""
        assert m.parameters[0].type_annotation == "Options"

    def test_generic_param_types_keep_commas(self, frontend):
        m = frontend.parse("function f(m: Map<string, number>, x: number) {}", "f.ts")
        assert [p.name for p in m.parameters] == ["m", "x"]
        assert m.parameters[0].type_annotation == "Map<string, number>"

    def test_rest_param(self, frontend):
        m = frontend.parse("function f(...items: string[]) {}", "f.ts")
        assert m.parameters[0].name == "items"

    def test_declaration_without_body(self, frontend):
        m = frontend.parse("declare function f(x: number): string;", "f.ts")
        assert m.function_name == "f"
        assert m.control_flow_skeleton == ""

    def test_arrow_function(self, frontend):
        m = frontend.parse(
            "export const toHex = (value: number): string => { return value.toString(16); };",
            "f.ts",
        )
        assert m.function_name == "toHex"
        assert m.return_type == "string"
        assert m.control_flow_skeleton == "return statement"

    def test_parenthesized_initializer_before_arrow_function(self, frontend):
        m = frontend.parse(
            "const total = (1 + 2);\nexport const f = (x: number): number => x * total;",
            "f.ts",
        )
        assert m.function_name == "f"
        assert [(p.name, p.type_annotation) for p in m.parameters] == [("x", "number")]
        assert m.return_type == "number"

    def test_arrow_function_with_thirty_parameters(self, frontend):
        params = ", ".join(f"p{k}: number" for k in range(30))
        m = frontend.parse(f"const f = ({params}): number => p0;", "f.ts")
        assert m.function_name == "f"
        assert [p.name for p in m.parameters] == [f"p{k}" for k in range(30)]
        assert m.return_type == "number"

    @pytest.mark.parametrize(
        "source, params, return_type, body",
        [
            ("const f = (): () => void => g;", [], "() => void", ["g"]),
            ("const f = (): (string) => x;", [], "(string)", ["x"]),
            ("const f = (a: number, b?: string): (x: number) => void => { return a; };",
             [("a", "number"), ("b", "?string")], "(x: number) => void", ["return", "a", ";"]),
        ],
        ids=["function-type", "parenthesised-type", "function-type-with-params"],
    )
    def test_arrow_function_return_type_ends_before_its_own_arrow(
        self, frontend, source, params, return_type, body
    ):
        code = [t for t in lex(source) if t.kind not in ("block_comment", "line_comment")]
        _, got_params, got_type, got_body = frontend._parse_function(code, source)
        assert [(p.name, p.type_annotation) for p in got_params] == params
        assert got_type == return_type
        assert [t.text for t in got_body] == body
        assert frontend.parse(source, "a.ets").return_type == return_type

    def test_function_type_return_annotation(self, frontend):
        m = frontend.parse("function f(): () => void { return g; }", "f.ts")
        assert m.return_type == "() => void"
        assert m.control_flow_skeleton == "return statement"

    def test_declared_function_type_return_annotation(self, frontend):
        m = frontend.parse("declare function on(cb: () => void): () => void;", "f.ts")
        assert m.parameters[0].type_annotation == "() => void"
        assert m.return_type == "() => void"

    def test_unbalanced_body_fails(self, frontend):
        with pytest.raises(ParseFailure):
            frontend.parse("function f() { if (x) {", "f.ts")

    def test_no_function_fails(self, frontend):
        with pytest.raises(ParseFailure):
            frontend.parse("const x = 1;", "f.ts")


class TestImportsAndNamespace:
    def test_import_forms(self, frontend):
        source = """
        import def from 'mod.a';
        import {x, y} from "mod.b";
        import * as ns from 'mod.c';
        import 'mod.d';
        function f() {}
        """
        m = frontend.parse(source, "f.ts")
        assert m.dependency == ["mod.a", "mod.b", "mod.c", "mod.d"]

    def test_quoted_module_declaration(self, frontend):
        m = frontend.parse('declare module "ohos.wifi" { function f() {} }', "f.ts")
        assert m.package_module == "ohos.wifi"

    def test_no_namespace(self, frontend):
        assert frontend.parse("function f() {}", "f.ts").package_module is None


class TestBehaviorScanning:
    def test_do_while_counts_once(self, frontend):
        skeleton = frontend.control_flow_skeleton("do { step(); } while (busy);")
        assert skeleton == "loop"

    def test_callback_registration_via_property(self, frontend):
        skeleton = frontend.control_flow_skeleton("emitter.on('x', handler);")
        assert skeleton == "callback registration"

    def test_io_families(self, frontend):
        m = frontend.parse(
            "function sync() { readFileSync(p); fs.writeFile(p, d); printLine(s); }",
            "f.ts",
        )
        assert m.io_behavior == "read; write; print"

    def test_local_assignments_not_reported(self, frontend):
        m = frontend.parse(
            "function f(n: number) { let i = 0; i += n; this.total = n; cache.hits++; }",
            "f.ts",
        )
        assert m.variable_modification == "this.total, cache.hits"

    def test_multi_declarator_statement_declares_all_names(self, frontend):
        m = frontend.parse(
            "function f() { let i = 0, j = 1; j = 2; i += 1; total = i + j; }",
            "f.ts",
        )
        assert m.variable_modification == "total"

    def test_compound_assignment_to_nonlocal(self, frontend):
        m = frontend.parse("function f() { counter += 1; }", "f.ts")
        assert m.variable_modification == "counter"

    def test_comparisons_are_not_assignments(self, frontend):
        m = frontend.parse("function f(x: number) { if (x == limit) { g(); } }", "f.ts")
        assert m.variable_modification is None


# -- Hypothesis properties ----------------------------------------------------

TS_SOUP = st.sampled_from(
    ["function", "export", "declare", "const", "let", "namespace", "import", "from",
     "class", "constructor", "return", "if", "else", "for", "while", "do", "switch",
     "case", "try", "catch", "new", "this", "async", "await", "static", "f", "x",
     "number", "string", "void", "'s'", '"t"', "`u`", "0", "1.5",
     "(", ")", "{", "}", "[", "]", "<", ">", ",", ";", ":", "?", "=", "=>", "...",
     ".", "@", "+=", "===", "/*", "*/", "/** @since 9 */", "//", "\n", " "]
)


soup = st.lists(TS_SOUP, max_size=30).map(" ".join)
# Framed soup reaches the signature and body scanners about half the time.
framed = st.tuples(soup, soup, soup).map(lambda p: f"{p[0]} function f({p[1]}) {{ {p[2]} }}")
arrow = st.tuples(soup, soup, soup).map(lambda p: f"const f = ({p[0]}) {p[1]} => {p[2]}")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60) | soup | framed | arrow)
def test_parse_raises_only_parse_failure(text):
    try:
        TypeScriptLikeFrontend().parse(text, "f.ts")
    except ParseFailure:
        pass


@settings(max_examples=500)
@given(st.lists(st.sampled_from(["(", ")", "[", "]", "{", "}", "<", ">", "x", ";"]), max_size=40))
def test_closer_table_matches_closer_for_every_opener(texts):
    """Unbalanced and mixed brackets included: ``(]`` closes by depth."""
    tokens = [Token("punct", text, n) for n, text in enumerate(texts)]
    table = _closers(tokens)
    for i, text in enumerate(texts):
        if text in "([{":
            assert table.get(i) == _closer(tokens, i)
    assert set(table) <= {i for i, text in enumerate(texts) if text in "([{"}


# -- scaling ------------------------------------------------------------------


def cpu_seconds(source: str) -> float:
    """Least process CPU time of three parses of ``source``."""
    times = []
    for _ in range(3):
        started = time.process_time()
        try:
            TypeScriptLikeFrontend().parse(source, "f.ts")
        except ParseFailure:
            pass
        times.append(time.process_time() - started)
    return min(times)


def assignments(n: int) -> str:
    return "function f() {\n" + "".join(f"this.a{i} = 1;\n" for i in range(n)) + "}\n"


@pytest.mark.parametrize(
    "make, small, large",
    [(lambda n: "const a = (\n" * n, 1_000, 8_000), (assignments, 2_000, 16_000)],
    ids=["unclosed-arrow-groups", "distinct-assignments"],
)
def test_parse_time_grows_linearly(make, small, large):
    """8 times the input takes well under 8 squared times the CPU time;
    a ratio on one host, not a wall-clock bound."""
    ratio = cpu_seconds(make(large)) / cpu_seconds(make(small))
    assert ratio < 12, ratio
