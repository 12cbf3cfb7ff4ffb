import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum.code_model import MetadataSet, ParameterField
from expsum.errors import EmptyDictionary, IoFailure
from expsum.metadata_check import (
    REASON_EMPTY,
    REASON_UNINFORMATIVE,
    UninformativeDictionary,
    check_metadata,
    load_dictionary,
)

SEED_DICT = UninformativeDictionary(
    entries=frozenset(
        {"na", "unknown", "?number", "number", "param", "arg", "return", "x", "none"}
    )
)


def plain_metadata(**overrides):
    base = dict(
        function_name="connect",
        parameters=[ParameterField("endpoint", "Endpoint")],
        return_type="Session",
        file_path="net/session.ts",
        package_module="ohos.net",
        dependency=["system.socket"],
        control_flow_skeleton="conditional; return statement",
        io_behavior="read",
        variable_modification="this.session",
        dmt={"@since": "API version 10"},
    )
    base.update(overrides)
    return MetadataSet(**base)


class TestDocumentedRemovals:
    def test_empty_parameters_removed(self):
        report = check_metadata(plain_metadata(parameters=[]), SEED_DICT)
        assert ("parameters", REASON_EMPTY) in report.removed_fields
        assert report.retained.parameters is None

    def test_unknown_number_parameter_removed(self):
        m = plain_metadata(
            parameters=[ParameterField("UNKNOWN", "?number", "0")]
        )
        report = check_metadata(m, SEED_DICT)
        assert ("parameters", REASON_UNINFORMATIVE) in report.removed_fields
        assert report.retained.parameters is None

    def test_na_officialdoc_removed(self):
        m = plain_metadata(dmt={"@officialdoc": "NA"})
        report = check_metadata(m, SEED_DICT)
        assert ("@officialdoc", REASON_UNINFORMATIVE) in report.removed_fields
        assert "@officialdoc" not in report.retained.dmt

    def test_fully_informative_set_is_fixed_point(self):
        report = check_metadata(plain_metadata(), SEED_DICT)
        assert report.removed_fields == []

    def test_partial_parameter_removal(self):
        m = plain_metadata(
            parameters=[
                ParameterField("UNKNOWN", "?number"),
                ParameterField("uri", "string"),
            ]
        )
        report = check_metadata(m, SEED_DICT)
        assert ("parameters[0]", REASON_UNINFORMATIVE) in report.removed_fields
        assert [p.name for p in report.retained.parameters] == ["uri"]

    def test_parameter_needs_both_subfields_uninformative(self):
        m = plain_metadata(parameters=[ParameterField("UNKNOWN", "Endpoint")])
        report = check_metadata(m, SEED_DICT)
        assert report.retained.parameters == m.parameters

    def test_function_name_never_removed(self):
        m = plain_metadata(function_name="unknown")
        report = check_metadata(m, SEED_DICT)
        assert report.retained.function_name == "unknown"
        assert all(name != "function_name" for name, _ in report.removed_fields)

    def test_file_path_always_retained(self):
        m = plain_metadata(file_path="na")
        report = check_metadata(m, SEED_DICT)
        assert report.retained.file_path == "na"

    def test_empty_string_classified_as_empty(self):
        m = plain_metadata(io_behavior="")
        report = check_metadata(m, SEED_DICT)
        assert ("io_behavior", REASON_EMPTY) in report.removed_fields

    def test_match_is_whole_value_not_substring(self):
        m = plain_metadata(io_behavior="return value cached on read")
        report = check_metadata(m, SEED_DICT)
        assert report.retained.io_behavior == m.io_behavior

    def test_dependency_all_uninformative(self):
        m = plain_metadata(dependency=["na", "none"])
        report = check_metadata(m, SEED_DICT)
        assert ("dependency", REASON_UNINFORMATIVE) in report.removed_fields


class TestLoadDictionary:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("NA\nparam\narg\nreturn\n", encoding="utf-8")
        d = load_dictionary(path)
        assert len(d.entries) == 4
        assert d.matches("na") and d.matches("PARAM")

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("NA\nna\n NA \n", encoding="utf-8")
        assert len(load_dictionary(path).entries) == 1

    def test_comments_only_is_empty(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("# nothing here\n# still nothing\n", encoding="utf-8")
        with pytest.raises(EmptyDictionary):
            load_dictionary(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_dictionary(tmp_path / "absent.txt")

    def test_version_header(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("# version: 7\nna\n", encoding="utf-8")
        assert load_dictionary(path).version == "7"

    def test_packaged_seed_dictionary(self):
        from expsum.config import packaged_data_path

        d = load_dictionary(packaged_data_path("uninformative_dictionary.txt"))
        assert {"na", "unknown", "?number", "param", "arg", "return"} <= d.entries
        assert len(d.entries) >= 55


# -- randomized properties ----------------------------------------------------

FIELD_VALUE_POOL = [
    None,
    "",
    "na",
    "NONE",
    "number",
    "x",
    "Manages the session lifecycle",
    "conditional; loop",
    "read; write",
]
PARAM_POOL = [
    ParameterField("UNKNOWN", "?number", "0"),
    ParameterField("x", "number"),
    ParameterField("uri", "string"),
    ParameterField("options", "ConnectOptions"),
    ParameterField("", "StartupConfig"),
]
DMT_POOL = {
    "@since": ["API version 9", "na", ""],
    "@officialdoc": ["NA", "Monitor power consumption.", ""],
    "@usage": ["let x = f();", "none"],
}


def random_metadata(rng: random.Random) -> MetadataSet:
    params = None
    if rng.random() < 0.85:
        params = [rng.choice(PARAM_POOL) for _ in range(rng.randrange(0, 4))]
    dependency = None
    if rng.random() < 0.85:
        dependency = rng.sample(
            ["system.battery", "na", "none", "system.net"], k=rng.randrange(0, 3)
        )
    dmt = {}
    for key, values in DMT_POOL.items():
        if rng.random() < 0.6:
            dmt[key] = rng.choice(values)
    return MetadataSet(
        function_name=rng.choice(["getBatteryLevel", "x", "unknown", "onEvent"]),
        parameters=params,
        return_type=rng.choice(FIELD_VALUE_POOL),
        file_path=rng.choice(["a/b.ts", "x"]),
        package_module=rng.choice(FIELD_VALUE_POOL),
        dependency=dependency,
        control_flow_skeleton=rng.choice(FIELD_VALUE_POOL),
        io_behavior=rng.choice(FIELD_VALUE_POOL),
        variable_modification=rng.choice(FIELD_VALUE_POOL),
        dmt=dmt,
    )


def field_count(m: MetadataSet) -> int:
    return len(m.present_fields()) + len(m.parameters or [])


def test_idempotence_over_randomized_sets():
    rng = random.Random(20240311)
    for _ in range(120):
        m = random_metadata(rng)
        first = check_metadata(m, SEED_DICT)
        second = check_metadata(first.retained, SEED_DICT)
        assert second.removed_fields == []
        assert second.retained == first.retained


def test_monotonicity_over_randomized_sets():
    rng = random.Random(20240312)
    bigger = UninformativeDictionary(
        entries=frozenset(SEED_DICT.entries | {"string", "read; write", "api version 9"})
    )
    for _ in range(120):
        m = random_metadata(rng)
        small = check_metadata(m, SEED_DICT)
        large = check_metadata(m, bigger)
        assert field_count(large.retained) <= field_count(small.retained)


def test_completeness_partition():
    rng = random.Random(20240313)
    for _ in range(120):
        m = random_metadata(rng)
        report = check_metadata(m, SEED_DICT)
        removed_names = [name for name, _ in report.removed_fields]
        assert len(removed_names) == len(set(removed_names))
        retained_names = set(report.retained.present_fields())
        field_level_removed = {n for n in removed_names if "[" not in n}
        assert field_level_removed.isdisjoint(retained_names)
        # every present field of the input lands on exactly one side
        for name in m.present_fields():
            assert (name in retained_names) != (name in field_level_removed)


# -- Hypothesis properties ----------------------------------------------------

values = st.sampled_from(["", " ", "na", " NA ", "number", "x", "none", "read; write"]) | st.text(
    max_size=6
)
optional_values = st.none() | values
parameters = st.builds(ParameterField, values, optional_values, optional_values)
metadata_sets = st.builds(
    MetadataSet,
    function_name=values,
    parameters=st.none() | st.lists(parameters, max_size=4),
    return_type=optional_values,
    file_path=values,
    package_module=optional_values,
    dependency=st.none() | st.lists(values, max_size=3),
    control_flow_skeleton=optional_values,
    io_behavior=optional_values,
    variable_modification=optional_values,
    dmt=st.dictionaries(st.sampled_from(["@since", "@usage", "@officialdoc"]), values),
)


@settings(max_examples=300)
@given(metadata_sets)
def test_check_is_idempotent_and_keeps_name_and_path(m):
    first = check_metadata(m, SEED_DICT)
    second = check_metadata(first.retained, SEED_DICT)
    assert second.removed_fields == []
    assert second.retained == first.retained
    assert (first.retained.function_name, first.retained.file_path) == (m.function_name, m.file_path)
