"""Grammar-based frontend for a TypeScript-like language (ArkTS, TS, JS).

A small lexer plus structural scanning recovers the signature, imports,
namespace, doc-comment annotations, and behavior facts of one function.
Known limitations, acceptable for declaration-style sources: object-literal
type annotations and regex literals containing braces are not understood.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .code_model import MetadataSet, ParameterField
from .errors import ParseFailure
from .knowledge_base import split_camel

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<string>'(?:\\.|[^'\\\n])*'|"(?:\\.|[^"\\\n])*")
    | (?P<template>`(?:\\.|[^`\\])*`)
    | (?P<number>\d[\w]*(?:\.\d+)?)
    | (?P<ident>[A-Za-z_$][\w$]*)
    | (?P<punct>===|!==|==|!=|<=|>=|=>|\+\+|--|\+=|-=|\*=|/=|%=|&&|\|\||\?\?|\.\.\.|[{}()\[\];,.:?=<>+\-*/%&|^!~@#])
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = frozenset(
    "if else for while do try catch finally switch case return function "
    "const let var new typeof instanceof in of break continue throw class "
    "export import declare namespace module async await static public "
    "private protected readonly interface enum extends implements this "
    "default delete void yield".split()
)

_CALLBACK_NAMES = frozenset(
    {"on", "once", "addEventListener", "addListener", "subscribe"}
)

_IO_VERBS = ("read", "write", "open", "close", "print")

_ANNOTATION_RE = re.compile(r"^\s*(@[A-Za-z][\w.]*)\b\s*(.*)$")


def _brackets(opens: str, closes: str) -> dict[str, int]:
    """A bracket set: the depth step of each opener (+1) and closer (-1)
    token. ``brackets.get(text, 0)`` is the step of any token."""
    return {**dict.fromkeys(opens, 1), **dict.fromkeys(closes, -1)}


# One bracket set per kind of group scanned.
_GROUP = _brackets("([{", ")]}")
_TYPE = _brackets("([{<", ")]}>")  # parameter type annotations
_RETURN = _brackets("([<", ")]>")  # return types: a `{` starts the body
_BRACE = _brackets("{", "}")
_ANGLE = _brackets("<", ">")
_RETURN_STOPS = ("{", ";", "=>")


@dataclass
class Token:
    kind: str
    text: str
    pos: int

    @property
    def end(self) -> int:
        return self.pos + len(self.text)


def lex(source: str) -> list[Token]:
    """Full token stream including comments; whitespace dropped."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseFailure(
                f"unrecognized or unterminated token at offset {pos}: "
                f"{source[pos:pos + 20]!r}"
            )
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


def _comment_lines(token: Token) -> list[str]:
    text = token.text
    if text.startswith("/*"):
        body = text[2:-2]
        lines = []
        for raw in body.splitlines():
            stripped = raw.strip()
            if stripped.startswith("*"):
                stripped = stripped[1:].strip()
            lines.append(stripped)
        return lines
    return [text[2:].strip()]


def harvest_annotations(tokens: list[Token]) -> dict[str, str]:
    """Collect ``@tag value`` annotations from all comments.

    A value continues over following lines until the next tag; a bare tag
    stores ``"true"``. Later occurrences of a tag override earlier ones.
    """
    annotations: dict[str, str] = {}
    for token in tokens:
        if token.kind not in ("block_comment", "line_comment"):
            continue
        current: str | None = None
        parts: list[str] = []
        for line in _comment_lines(token):
            m = _ANNOTATION_RE.match(line)
            if m:
                if current is not None:
                    annotations[current] = " ".join(parts).strip() or "true"
                current = m.group(1)
                parts = [m.group(2).strip()] if m.group(2).strip() else []
            elif current is not None and line:
                parts.append(line)
        if current is not None:
            annotations[current] = " ".join(parts).strip() or "true"
    return annotations


def _strip_quotes(text: str) -> str:
    return text[1:-1] if len(text) >= 2 else text


def _closer(tokens: list[Token], start: int, brackets: dict[str, int] = _GROUP) -> int | None:
    """Index of the first closer from ``start`` that brings the depth back
    to 0, which ends the group opened at ``start``; None if there is none."""
    depth = 0
    for j in range(start, len(tokens)):
        step = brackets.get(tokens[j].text, 0)
        depth += step
        if depth == 0 and step < 0:
            return j
    return None


def _closers(tokens: list[Token], brackets: dict[str, int] = _GROUP) -> dict[int, int]:
    """``_closer(tokens, i, brackets)`` of every opener ``i`` that has one,
    from one pass: a closer ends the innermost group still open, and one
    with no group open ends none."""
    closers: dict[int, int] = {}
    open_at: list[int] = []
    for j, token in enumerate(tokens):
        step = brackets.get(token.text, 0)
        if step > 0:
            open_at.append(j)
        elif step < 0 and open_at:
            closers[open_at.pop()] = j
    return closers


def _stop(tokens: list[Token], start: int, stops, brackets: dict[str, int] = _GROUP) -> int:
    """Index of the first token in ``stops`` outside brackets, from
    ``start``; ``len(tokens)`` if there is none. A closer may take the
    depth below 0, where nothing stops until openers bring it back."""
    depth = 0
    for j in range(start, len(tokens)):
        text = tokens[j].text
        if depth == 0 and text in stops:
            return j
        depth += brackets.get(text, 0)
    return len(tokens)


class TypeScriptLikeFrontend:
    """Parses one function from TypeScript-like source into a metadata set."""

    def parse(self, source: str, file_path: str) -> MetadataSet:
        if not source.strip():
            raise ParseFailure("empty source text")
        all_tokens = lex(source)
        annotations = harvest_annotations(all_tokens)
        code = [t for t in all_tokens if t.kind not in ("block_comment", "line_comment")]

        dependency = self._scan_imports(code)
        package_module = self._scan_namespace(code)
        name, params, return_type, body = self._parse_function(code, source)

        skeleton = self._scan_constructs(body)
        io_behavior = self._scan_io(body)
        variable_modification = self._scan_modifications(body, params)

        return MetadataSet(
            function_name=name,
            parameters=params,
            return_type=return_type,
            file_path=file_path,
            package_module=package_module,
            dependency=dependency,
            control_flow_skeleton=skeleton,
            io_behavior=io_behavior,
            variable_modification=variable_modification,
            dmt=annotations,
        )

    def control_flow_skeleton(self, source: str) -> str:
        """Skeleton of a bare statement sequence (no function wrapper needed)."""
        tokens = [
            t for t in lex(source)
            if t.kind not in ("block_comment", "line_comment")
        ]
        return self._scan_constructs(tokens)

    # -- structural scanning ------------------------------------------------

    def _scan_imports(self, code: list[Token]) -> list[str]:
        modules: list[str] = []
        for i, t in enumerate(code):
            if t.kind == "ident" and t.text == "import":
                j = i + 1
                while j < len(code) and code[j].text != ";":
                    if code[j].kind == "string":
                        mod = _strip_quotes(code[j].text)
                        if mod and mod not in modules:
                            modules.append(mod)
                        break
                    j += 1
        return modules

    def _scan_namespace(self, code: list[Token]) -> str | None:
        for i, t in enumerate(code):
            if t.kind == "ident" and t.text in ("namespace", "module"):
                j = i + 1
                if j < len(code) and code[j].kind == "string":
                    return _strip_quotes(code[j].text)
                parts: list[str] = []
                while j < len(code) and code[j].text != "{":
                    if code[j].kind == "ident":
                        parts.append(code[j].text)
                    elif code[j].text != ".":
                        break
                    j += 1
                if parts:
                    return ".".join(parts)
        return None

    def _parse_function(
        self, code: list[Token], source: str
    ) -> tuple[str, list[ParameterField], str | None, list[Token]]:
        for i, t in enumerate(code[:-1]):
            if t.kind == "ident" and t.text == "function" and code[i + 1].kind == "ident":
                name, open_paren = code[i + 1].text, i + 2
                if open_paren >= len(code) or code[open_paren].text != "(":
                    raise ParseFailure(f"malformed parameter list for {name!r}")
                close = _closer(code, open_paren)
                if close is None:
                    raise ParseFailure("unbalanced parameter list")
                params = self._parse_params(code, open_paren, close, source)
                return_type, body_start = self._parse_return_type(code, close + 1, source)
                return name, params, return_type, self._parse_body(code, body_start)
        arrow = self._parse_arrow_function(code, source)
        if arrow is None:
            raise ParseFailure("no function declaration found")
        return arrow

    def _parse_arrow_function(self, code, source):
        # const name = (params): ret => body, where `=>` follows the group
        closers = _closers(code)
        for i, t in enumerate(code):
            if not (
                t.kind == "ident"
                and t.text in ("const", "let", "var")
                and i + 3 < len(code)
                and code[i + 1].kind == "ident"
                and code[i + 2].text == "="
                and code[i + 3].text == "("
            ):
                continue
            close = closers.get(i + 3)
            if close is None:
                continue
            return_type, arrow_at = self._parse_return_type(code, close + 1, source, arrow=True)
            if arrow_at >= len(code) or code[arrow_at].text != "=>":
                continue
            params = self._parse_params(code, i + 3, close, source)
            after = arrow_at + 1
            if after < len(code) and code[after].text == "{":
                body = self._parse_body(code, after)
            else:  # an expression ends at `;` or at an unmatched closer
                body = code[after : _stop(code, after, (";", ")", "]", "}"))]
            return code[i + 1].text, params, return_type, body
        return None

    def _parse_params(
        self, code: list[Token], open_paren: int, close: int, source: str
    ) -> list[ParameterField]:
        # split on commas outside brackets and outside `<...>` type arguments
        groups: list[list[Token]] = [[]]
        depth = angle = 0
        for tok in code[open_paren + 1 : close]:
            if tok.text == "," and depth == angle == 0:
                groups.append([])
                continue
            depth += _GROUP.get(tok.text, 0)
            angle = max(angle + _ANGLE.get(tok.text, 0), 0)
            groups[-1].append(tok)
        return [self._parse_param(g, source) for g in groups if g]

    def _parse_param(self, group: list[Token], source: str) -> ParameterField:
        i = 0
        if group[i].text == "...":
            i += 1
        name = ""
        if i < len(group) and group[i].kind == "ident":
            name = group[i].text
            i += 1
        else:
            # destructuring pattern: skip to its end; name stays empty
            end = _closer(group, i)
            i = len(group) if end is None else end + 1
        optional = i < len(group) and group[i].text == "?"
        if optional:
            i += 1
        type_annotation = None
        default_value = None
        if i < len(group) and group[i].text == ":":
            start = i + 1
            i = _stop(group, start, ("=",), _TYPE)
            if i > start:
                type_annotation = source[group[start].pos : group[i - 1].end].strip()
        if i + 1 < len(group) and group[i].text == "=":
            default_value = source[group[i + 1].pos : group[-1].end].strip()
        if optional and type_annotation:
            type_annotation = "?" + type_annotation
        if not name and type_annotation is None:
            raise ParseFailure("parameter with neither name nor type annotation")
        return ParameterField(name, type_annotation, default_value)

    def _parse_return_type(
        self, code: list[Token], start: int, source: str, arrow: bool = False
    ) -> tuple[str | None, int]:
        i = start
        if i < len(code) and code[i].text == ":":
            type_start = i + 1
            i = _stop(code, type_start, _RETURN_STOPS, _RETURN)
            # `=>` right after `)` continues a function type, but in an arrow
            # function only when another `=>`, the arrow's own, follows
            while i < len(code) and code[i].text == "=>" and code[i - 1].text == ")":
                after = _stop(code, i + 1, _RETURN_STOPS, _RETURN)
                if arrow and (after == len(code) or code[after].text != "=>"):
                    break
                i = after
            if i > type_start:
                annotation = source[code[type_start].pos : code[i - 1].end].strip()
                return annotation or None, i
        return None, i

    def _parse_body(self, code: list[Token], start: int) -> list[Token]:
        if start >= len(code) or code[start].text != "{":
            return []  # declaration without a body
        close = _closer(code, start, _BRACE)
        if close is None:
            raise ParseFailure("unbalanced braces in function body")
        return code[start + 1 : close]

    def _scan_constructs(self, body: list[Token]) -> str:
        labels: list[str] = []
        do_depth = 0
        for i, t in enumerate(body):
            prev = body[i - 1] if i > 0 else None
            nxt = body[i + 1] if i + 1 < len(body) else None
            if t.kind == "ident":
                if t.text == "if":
                    if not (prev is not None and prev.text == "else"):
                        labels.append("conditional")
                elif t.text == "for":
                    labels.append("loop")
                elif t.text == "do":
                    labels.append("loop")
                    do_depth += 1
                elif t.text == "while":
                    if do_depth > 0 and prev is not None and prev.text == "}":
                        do_depth -= 1
                    else:
                        labels.append("loop")
                elif t.text == "try":
                    labels.append("try")
                elif t.text == "switch":
                    labels.append("switch")
                elif t.text == "return":
                    labels.append("return statement")
                elif (
                    t.text in _CALLBACK_NAMES
                    and nxt is not None
                    and nxt.text == "("
                ):
                    labels.append("callback registration")
        return "; ".join(labels)

    def _scan_io(self, body: list[Token]) -> str | None:
        found: list[str] = []
        for t in body:
            if t.kind != "ident" or t.text in _KEYWORDS:
                continue
            segments = {s.lower() for s in split_camel(t.text)}
            for verb in _IO_VERBS:
                if verb in segments and verb not in found:
                    found.append(verb)
        return "; ".join(found) if found else None

    def _scan_modifications(
        self, body: list[Token], params: list[ParameterField]
    ) -> str | None:
        locals_ = {p.name for p in params if p.name}
        collecting = False
        in_initializer = False
        decl_depth = 0
        depth = 0
        for t in body:
            depth += _GROUP.get(t.text, 0)
            if t.kind == "ident" and t.text in ("let", "const", "var"):
                collecting = True
                in_initializer = False
                decl_depth = depth
                continue
            if not collecting:
                continue
            if in_initializer:
                # `let i = 0, j = 1;`: resume collecting at the declarator comma
                if depth == decl_depth and t.text == ",":
                    in_initializer = False
                elif depth <= decl_depth and t.text == ";":
                    collecting = False
            else:
                if t.kind == "ident" and t.text not in _KEYWORDS:
                    locals_.add(t.text)
                elif t.text == "=":
                    in_initializer = True
                elif t.text in (";", "of", "in"):
                    collecting = False

        assign_ops = {"=", "+=", "-=", "*=", "/=", "%="}
        targets: list[str] = []  # in order of first assignment
        seen: set[str] = set()

        def chain_before(index: int) -> tuple[str | None, int]:
            # walk (ident|this)(.ident)* ending right before `index`
            j = index - 1
            parts: list[str] = []
            while j >= 0:
                tok = body[j]
                if tok.kind == "ident" and (tok.text not in _KEYWORDS or tok.text == "this"):
                    parts.insert(0, tok.text)
                    if j - 1 >= 0 and body[j - 1].text == ".":
                        j -= 2
                        continue
                    return ".".join(parts), j
                return (".".join(parts) if parts else None), j + 1
            return (".".join(parts) if parts else None), 0

        for i, t in enumerate(body):
            lhs = None
            if t.text in assign_ops and t.kind == "punct":
                lhs, start = chain_before(i)
                if lhs and start - 1 >= 0 and body[start - 1].text in ("let", "const", "var"):
                    lhs = None
            elif t.text in ("++", "--"):
                lhs, _ = chain_before(i)
                if lhs is None and i + 1 < len(body) and body[i + 1].kind == "ident":
                    lhs = body[i + 1].text
            if lhs:
                base = lhs.split(".", 1)[0]
                if base != "this" and base in locals_:
                    continue
                if base in _KEYWORDS and base != "this":
                    continue
                if lhs not in seen:
                    seen.add(lhs)
                    targets.append(lhs)
        return ", ".join(targets) if targets else None
