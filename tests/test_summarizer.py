import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum.config import packaged_data_path
from expsum.errors import (
    AllCategoriesExcluded,
    ConfigError,
    MalformedDraft,
    MalformedRefinement,
)
from expsum.llm import LlmResponse, MockLlmClient, MockRule, MockScript
from expsum.retrieval import RetrievalResult
from expsum.summarizer import (
    CATEGORY_MARKER,
    CATEGORY_ORDER,
    ERROR_MARKER,
    FINAL_MARKER,
    SUMMARY_MARKER,
    FunctionCategory,
    SummarizerConfig,
    build_draft_prompt,
    build_refine_prompt,
    load_category_schemas,
    load_refiner_constraints,
    parse_draft,
    parse_refinement,
    summarize,
)


@pytest.fixture(scope="module")
def schemas():
    return load_category_schemas(packaged_data_path("schemas"))


@pytest.fixture(scope="module")
def constraints():
    return load_refiner_constraints(packaged_data_path("refiner_constraints.json"))


def response(text):
    return LlmResponse(text=text, backend_id="mock")


def retrieval(terms=("battery",)):
    return RetrievalResult(terms=list(terms), entries=[], stage_trace=[1, 1, len(terms)])


def config(schemas, constraints, **overrides):
    return SummarizerConfig(
        schemas=schemas, refiner_constraints=constraints, **overrides
    )


class TestSchemaLoading:
    def test_loads_all_five(self, schemas):
        assert [s.category for s in schemas] == list(CATEGORY_ORDER)

    def test_field_schema_invariants(self, schemas):
        field_schema = schemas[0]
        assert set(field_schema.datatype_templates) == {
            "Boolean", "Integer", "String", "Object", "Enumeration",
        }
        assert field_schema.datatype_templates["Boolean"] == "Indicates whether {X}"
        joined = " ".join(field_schema.forbidden).lower()
        assert "set" in joined and "get" in joined

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_category_schemas(tmp_path)

    def test_field_schema_must_have_templates(self, tmp_path, schemas):
        import json
        import shutil

        shutil.copytree(packaged_data_path("schemas"), tmp_path / "schemas")
        field_path = tmp_path / "schemas" / "field.json"
        data = json.loads(field_path.read_text(encoding="utf-8"))
        del data["datatype_templates"]["Enumeration"]
        field_path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_category_schemas(tmp_path / "schemas")

    def test_empty_constraints_rejected(self, tmp_path):
        path = tmp_path / "constraints.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_refiner_constraints(path)


class TestDraftPrompt:
    def test_all_five_schemas_when_nothing_excluded(self, schemas, battery_metadata):
        req = build_draft_prompt(battery_metadata, ["battery"], schemas, set())
        for category in CATEGORY_ORDER:
            assert category.value in req.user_prompt.lower()

    def test_excluded_schema_absent(self, schemas, battery_metadata):
        req = build_draft_prompt(
            battery_metadata, [], schemas, {FunctionCategory.PROCEDURAL}
        )
        assert "procedural" not in req.user_prompt.lower()
        for category in CATEGORY_ORDER:
            if category is not FunctionCategory.PROCEDURAL:
                assert category.value in req.user_prompt.lower()

    def test_metadata_and_terms_included_verbatim(self, schemas, battery_metadata):
        req = build_draft_prompt(battery_metadata, ["battery"], schemas, set())
        assert "getBatteryLevel" in req.user_prompt
        assert "- battery" in req.user_prompt

    def test_all_excluded_raises(self, schemas, battery_metadata):
        with pytest.raises(AllCategoriesExcluded):
            build_draft_prompt(battery_metadata, [], schemas, set(CATEGORY_ORDER))

    def test_temperature_zero(self, schemas, battery_metadata):
        assert build_draft_prompt(battery_metadata, [], schemas, set()).temperature == 0.0


class TestParseDraft:
    def test_field_category_case(self):
        draft = parse_draft(
            response(
                "CATEGORY: field\nSUMMARY: Enumeration type of the visibility "
                "statuses of an ability after startup."
            )
        )
        assert draft.declared_category is FunctionCategory.FIELD
        assert draft.summary_text.startswith("Enumeration type of")

    def test_missing_marker(self):
        with pytest.raises(MalformedDraft):
            parse_draft(response("SUMMARY: no category here"))

    def test_unknown_category(self):
        with pytest.raises(MalformedDraft):
            parse_draft(response("CATEGORY: gadget\nSUMMARY: text"))

    def test_empty_body(self):
        with pytest.raises(MalformedDraft):
            parse_draft(response("CATEGORY: field\nSUMMARY:   "))

    def test_category_parse_is_case_insensitive(self):
        draft = parse_draft(response("CATEGORY: Field\nSUMMARY: ok text"))
        assert draft.declared_category is FunctionCategory.FIELD


class TestRefinePrompt:
    def test_contains_draft_and_error_marker_instruction(
        self, schemas, constraints, battery_metadata
    ):
        draft = parse_draft(response("CATEGORY: field\nSUMMARY: Indicates the level."))
        req = build_refine_prompt(battery_metadata, draft, constraints)
        assert "Indicates the level." in req.user_prompt
        assert "Error category:" in req.user_prompt
        assert "field" in req.user_prompt

    def test_constraints_verbatim(self, constraints, battery_metadata):
        draft = parse_draft(response("CATEGORY: field\nSUMMARY: Indicates the level."))
        req = build_refine_prompt(battery_metadata, draft, constraints)
        for constraint in constraints:
            assert constraint in req.user_prompt


class TestParseRefinement:
    def test_error_signal(self):
        outcome = parse_refinement(response("Error category: field"))
        assert not outcome.accepted
        assert outcome.error_category is FunctionCategory.FIELD

    def test_final_marker(self):
        outcome = parse_refinement(response("FINAL: Obtains the battery level."))
        assert outcome.accepted
        assert outcome.final_text == "Obtains the battery level."

    def test_unknown_error_category(self):
        with pytest.raises(MalformedRefinement):
            parse_refinement(response("Error category: widget"))

    def test_no_marker_nonempty_body_accepted(self):
        outcome = parse_refinement(response("Obtains the battery level."))
        assert outcome.accepted

    def test_no_marker_empty_body(self):
        with pytest.raises(MalformedRefinement):
            parse_refinement(response("   "))


def transcript_client(rules, default=None):
    return MockLlmClient(
        MockScript(rules=tuple(MockRule(**r) for r in rules), default=default)
    )


class TestSummarizerConfig:
    @pytest.mark.parametrize(
        "setting, expected",
        [
            ({"max_iterations": 0}, "'max_iterations' must be at least 1 (got 0)"),
            ({"max_parse_retries": -1}, "'max_parse_retries' must be at least 0 (got -1)"),
            ({"max_iterations": "3"}, "'max_iterations' must be an integer (got '3')"),
        ],
    )
    def test_loop_bounds_are_checked(self, schemas, constraints, setting, expected):
        with pytest.raises(ValueError) as err:
            config(schemas, constraints, **setting)
        assert type(err.value) is ValueError
        assert str(err.value) == expected


class TestSummarizeLoop:
    def test_single_iteration_acceptance(self, schemas, constraints, battery_metadata):
        client = transcript_client(
            [
                {"matcher": "Obtains the battery level", "response": "FINAL: Obtains the battery level."},
                {"matcher": "getBatteryLevel", "response": "CATEGORY: procedural\nSUMMARY: Obtains the battery level."},
            ]
        )
        result = summarize(
            battery_metadata, retrieval(), client, config(schemas, constraints)
        )
        assert result.iterations == 1
        assert result.category is FunctionCategory.PROCEDURAL
        assert result.final_summary == "Obtains the battery level."
        assert result.excluded_categories == set()
        assert result.degraded is False
        assert len(result.trace) == 1

    def test_rejection_excludes_and_redrafts(
        self, schemas, constraints, startup_visibility_metadata
    ):
        client = transcript_client(
            [
                {"matcher": "Sets the visibility watcher", "response": "Error category: procedural"},
                {"matcher": "Indicates the visibility statuses", "response": "FINAL: Enumerates the visibility statuses of an ability."},
                {
                    "matcher": r"(?s)StartupVisibility.*Procedural",
                    "regex": True,
                    "response": "CATEGORY: procedural\nSUMMARY: Sets the visibility watcher.",
                },
                {"matcher": "StartupVisibility", "response": "CATEGORY: field\nSUMMARY: Indicates the visibility statuses enumeration."},
            ]
        )
        result = summarize(
            startup_visibility_metadata,
            retrieval(terms=("ability",)),
            client,
            config(schemas, constraints),
        )
        assert result.iterations == 2
        assert result.excluded_categories == {FunctionCategory.PROCEDURAL}
        assert result.category is FunctionCategory.FIELD
        assert result.final_summary == "Enumerates the visibility statuses of an ability."
        assert result.degraded is False

        # the re-draft prompt must not carry the excluded schema
        draft_prompts = [
            c.user_prompt for c in client.calls if "Category options" in c.user_prompt
        ]
        assert len(draft_prompts) == 2
        assert "procedural" in draft_prompts[0].lower()
        assert "procedural" not in draft_prompts[1].lower()

    def test_termination_at_max_iterations_with_degraded_flag(
        self, schemas, constraints, startup_visibility_metadata
    ):
        # the refiner rejects every round; the drafts rotate through the
        # categories still offered by each shrinking prompt
        client = transcript_client(
            [
                {"matcher": "Summary: u-draft", "response": "Error category: utility"},
                {"matcher": "Summary: c-draft", "response": "Error category: constructor"},
                {"matcher": "Summary: b-draft", "response": "Error category: callback"},
                {
                    "matcher": r"(?s)Category options.*Utility",
                    "regex": True,
                    "response": "CATEGORY: utility\nSUMMARY: u-draft",
                },
                {
                    "matcher": r"(?s)Category options.*Constructor",
                    "regex": True,
                    "response": "CATEGORY: constructor\nSUMMARY: c-draft",
                },
                {"matcher": "Category options", "response": "CATEGORY: callback\nSUMMARY: b-draft"},
            ]
        )
        result = summarize(
            startup_visibility_metadata,
            retrieval(),
            client,
            config(schemas, constraints, max_iterations=3),
        )
        assert result.iterations == 3
        assert result.degraded is True
        assert result.final_summary == "b-draft"
        assert len(result.trace) == 3
        assert all(not outcome.accepted for _, outcome in result.trace)
        # the degraded result still satisfies the result invariants
        assert result.category not in result.excluded_categories
        assert len(result.excluded_categories) < 5

    def test_redeclaring_excluded_category_is_malformed(
        self, schemas, constraints, startup_visibility_metadata
    ):
        client = transcript_client(
            [
                {"matcher": "Error category", "response": "Error category: utility"},
            ],
            default="CATEGORY: utility\nSUMMARY: Keeps declaring utility.",
        )
        with pytest.raises(MalformedDraft):
            summarize(
                startup_visibility_metadata,
                retrieval(),
                client,
                config(schemas, constraints, max_iterations=3),
            )

    def test_strict_exclusion_growth(self, schemas, constraints, startup_visibility_metadata):
        # rejects utility, then constructor, then accepts callback
        client = transcript_client(
            [
                {"matcher": "Summary: First try", "response": "Error category: utility"},
                {"matcher": "Summary: Second try", "response": "Error category: constructor"},
                {"matcher": "Summary: Third try", "response": "FINAL: Called when visibility changes."},
                {
                    "matcher": r"(?s)Category options.*Utility",
                    "regex": True,
                    "response": "CATEGORY: utility\nSUMMARY: First try",
                },
                {
                    "matcher": r"(?s)Category options.*Constructor",
                    "regex": True,
                    "response": "CATEGORY: constructor\nSUMMARY: Second try",
                },
                {"matcher": "Category options", "response": "CATEGORY: callback\nSUMMARY: Third try"},
            ]
        )
        result = summarize(
            startup_visibility_metadata,
            retrieval(),
            client,
            config(schemas, constraints, max_iterations=4),
        )
        assert result.iterations == 3
        assert result.excluded_categories == {
            FunctionCategory.UTILITY,
            FunctionCategory.CONSTRUCTOR,
        }
        assert result.category is FunctionCategory.CALLBACK
        sizes = []
        excluded = set()
        for draft, outcome in result.trace:
            if not outcome.accepted:
                before = len(excluded)
                excluded.add(draft.declared_category)
                excluded.add(outcome.error_category)
                assert len(excluded) > before
                sizes.append(len(excluded))
        assert sizes == sorted(sizes)

    def test_mislabeled_error_signal_excludes_both_categories(
        self, schemas, constraints, startup_visibility_metadata
    ):
        # the refiner rejects the procedural draft but names the wrong
        # category; both the declared and the named category leave the
        # candidate space
        client = transcript_client(
            [
                {"matcher": "Summary: First guess", "response": "Error category: utility"},
                {"matcher": "Summary: Second guess", "response": "FINAL: Enumerates the statuses."},
                {
                    "matcher": r"(?s)Category options.*Procedural",
                    "regex": True,
                    "response": "CATEGORY: procedural\nSUMMARY: First guess",
                },
                {"matcher": "Category options", "response": "CATEGORY: field\nSUMMARY: Second guess"},
            ]
        )
        result = summarize(
            startup_visibility_metadata,
            retrieval(),
            client,
            config(schemas, constraints),
        )
        assert result.excluded_categories == {
            FunctionCategory.PROCEDURAL,
            FunctionCategory.UTILITY,
        }
        second_draft = [
            c.user_prompt for c in client.calls if "Category options" in c.user_prompt
        ][1]
        assert "procedural" not in second_draft.lower()
        assert "utility" not in second_draft.lower()

    def test_malformed_draft_after_retries(self, schemas, constraints, battery_metadata):
        client = transcript_client([], default="no markers at all")
        with pytest.raises(MalformedDraft):
            summarize(
                battery_metadata,
                retrieval(),
                client,
                config(schemas, constraints, max_parse_retries=1),
            )
        # initial call + one retry
        assert len(client.calls) == 2

    def test_mock_end_to_end_determinism(self, schemas, constraints, battery_metadata):
        def run():
            client = transcript_client(
                [
                    {"matcher": "Obtains the battery level", "response": "FINAL: Obtains the battery level."},
                    {"matcher": "getBatteryLevel", "response": "CATEGORY: procedural\nSUMMARY: Obtains the battery level."},
                ]
            )
            return summarize(
                battery_metadata, retrieval(), client, config(schemas, constraints)
            )

        a, b = run(), run()
        assert a.final_summary == b.final_summary
        assert a.trace[0][0].raw_response == b.trace[0][0].raw_response
        assert a.iterations == b.iterations


class SequenceClient:
    """Answers with ``replies`` in order and records every request."""

    def __init__(self, replies):
        self.replies = iter(replies)
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return response(next(self.replies))


def test_summarize_sends_exactly_the_positional_builders_prompts(
    schemas, constraints, startup_visibility_metadata
):
    """``summarize`` hands the builders metadata and schema texts made once
    per call; the prompts must equal those of the builders' positional call
    forms, through a parse retry, a mislabeled rejection and a degraded
    ending at the iteration bound."""
    meta, terms = startup_visibility_metadata, ["ability", "StartupVisibility"]
    client = SequenceClient(
        [
            "no category here",  # parse retry of the first draft
            "CATEGORY: procedural\nSUMMARY: Sets the watcher.",
            "Error category: procedural",
            "CATEGORY: field\nSUMMARY: Indicates the statuses.",
            "Error category: callback",  # mislabeled: excludes field and callback
            "CATEGORY: utility\nSUMMARY: Helps with visibility.",
            "Error category: utility",
        ]
    )
    result = summarize(
        meta, retrieval(terms), client, config(schemas, constraints, max_iterations=3)
    )
    assert result.degraded and result.iterations == 3
    assert result.final_summary == "Helps with visibility."

    def draft(category, text):
        return parse_draft(response(f"CATEGORY: {category}\nSUMMARY: {text}"))

    P, F, C = FunctionCategory.PROCEDURAL, FunctionCategory.FIELD, FunctionCategory.CALLBACK
    first_draft = build_draft_prompt(meta, terms, schemas, set())
    assert client.requests == [
        first_draft,
        first_draft,
        build_refine_prompt(meta, draft("procedural", "Sets the watcher."), constraints),
        build_draft_prompt(meta, terms, schemas, {P}),
        build_refine_prompt(meta, draft("field", "Indicates the statuses."), constraints),
        build_draft_prompt(meta, terms, schemas, {P, F, C}),
        build_refine_prompt(meta, draft("utility", "Helps with visibility."), constraints),
    ]


# -- Hypothesis properties ----------------------------------------------------

fragments = st.sampled_from(
    [CATEGORY_MARKER, SUMMARY_MARKER, FINAL_MARKER, ERROR_MARKER, "\n", " ", ".", "CATEGORY"]
    + [c.value for c in FunctionCategory]
    + [c.value.upper() for c in FunctionCategory]
) | st.text(max_size=6)
replies = st.lists(fragments, max_size=8).map("".join)


@settings(max_examples=500)
@given(replies)
def test_parsers_raise_only_malformed_errors(text):
    try:
        draft = parse_draft(response(text))
    except MalformedDraft:
        pass
    else:
        assert draft.summary_text.strip() and draft.declared_category in FunctionCategory
    try:
        parse_refinement(response(text))
    except MalformedRefinement:
        pass
