import json

import pytest

from expsum.code_model import (
    DmtConfig,
    FunctionRecord,
    Language,
    MetadataSet,
    ParameterField,
    deserialize_metadata,
    extract_control_flow_skeleton,
    metadata_from_dict,
    model_function,
    serialize_metadata,
)
from expsum.errors import ParseFailure, UnsupportedLanguage

BATTERY_SOURCE = """
import battery from 'system.battery';

namespace ohos.battery {
  /**
   * @deprecated false
   * @since API version 9
   * @syscap SystemCapability.Power.Battery
   */
  export function getBatteryLevel(): number {
    return battery.level;
  }
}
"""

# six-line sample with one if/else and one for loop, no returns
BRANCH_AND_LOOP_SOURCE = """
function tally(xs: number[]): void {
  if (xs.length > 0) {
    total += 1;
  } else {
    total = 0;
  }
  for (const x of xs) { total += x; }
}
"""


def battery_record():
    return FunctionRecord(
        file_path="foundation/power/battery/src/main/ets/battery.ts",
        source_text=BATTERY_SOURCE,
        language=Language.ARKTS,
    )


class TestModelFunction:
    def test_battery_level_modeling(self):
        m = model_function(battery_record(), DmtConfig())
        assert m.function_name == "getBatteryLevel"
        assert m.parameters == []
        assert m.return_type == "number"
        assert m.package_module == "ohos.battery"
        assert m.dependency == ["system.battery"]
        assert m.control_flow_skeleton == "return statement"
        assert m.dmt["@since"] == "API version 9"
        assert m.dmt["@syscap"] == "SystemCapability.Power.Battery"

    def test_pre_extracted_passthrough_with_dmt_filter(self, battery_metadata):
        record = FunctionRecord(
            file_path=battery_metadata.file_path,
            pre_extracted=battery_metadata,
        )
        out = model_function(record, DmtConfig.of(["@usage"]))
        assert out.dmt == {}
        assert out.function_name == battery_metadata.function_name
        assert out.parameters == battery_metadata.parameters

        out2 = model_function(record, DmtConfig.of(["@since"]))
        assert out2.dmt == {"@since": "API version 9"}

    def test_branch_and_loop_skeleton(self):
        record = FunctionRecord(
            file_path="x.ts",
            source_text=BRANCH_AND_LOOP_SOURCE,
            language=Language.TYPESCRIPT,
        )
        m = model_function(record, DmtConfig())
        assert m.control_flow_skeleton == "conditional; loop"

    def test_dmt_gating_never_leaks(self):
        m = model_function(battery_record(), DmtConfig.of(["@syscap"]))
        assert set(m.dmt) == {"@syscap"}

    def test_determinism(self):
        a = model_function(battery_record(), DmtConfig())
        b = model_function(battery_record(), DmtConfig())
        assert serialize_metadata(a) == serialize_metadata(b)

    def test_unsupported_language(self):
        record = FunctionRecord(
            file_path="x.java",
            source_text="int f() { return 0; }",
            language=Language.JAVA,
        )
        with pytest.raises(UnsupportedLanguage):
            model_function(record, DmtConfig())

    def test_unparsable_source(self):
        record = FunctionRecord(
            file_path="x.ts",
            source_text="not a function at all",
            language=Language.TYPESCRIPT,
        )
        with pytest.raises(ParseFailure):
            model_function(record, DmtConfig())

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            model_function(FunctionRecord(file_path="x.ts"), DmtConfig())
        with pytest.raises(ValueError):
            model_function(
                FunctionRecord(file_path="", source_text="function f() {}"),
                DmtConfig(),
            )

    def test_frontend_by_extension(self):
        record = FunctionRecord(
            file_path="lib/util.ets",
            source_text="function f(): void {}",
            language=Language.UNKNOWN,
        )
        m = model_function(record, DmtConfig())
        assert m.function_name == "f"

    def test_signature_fields_populated_or_explicitly_empty(self):
        m = model_function(battery_record(), DmtConfig())
        assert m.function_name
        assert m.parameters is not None
        assert m.return_type is not None


class TestControlFlowSkeleton:
    def test_single_return(self):
        assert extract_control_flow_skeleton("return x;", Language.ARKTS) == (
            "return statement"
        )

    def test_empty_body(self):
        assert extract_control_flow_skeleton("", Language.ARKTS) == ""

    def test_loop_containing_conditional(self):
        body = "for (const x of xs) { if (x > 1) { hits++; } }"
        assert extract_control_flow_skeleton(body, Language.ARKTS) == (
            "loop; conditional"
        )

    def test_else_if_is_one_chain(self):
        body = "if (a) { f(); } else if (b) { g(); }"
        assert extract_control_flow_skeleton(body, Language.ARKTS) == "conditional"

    def test_unsupported_language(self):
        with pytest.raises(UnsupportedLanguage):
            extract_control_flow_skeleton("return 0;", Language.PYTHON)


class TestSerialization:
    def test_round_trip_identity(self, battery_metadata):
        s = serialize_metadata(battery_metadata)
        assert serialize_metadata(deserialize_metadata(s)) == s

    def test_function_name_first(self, battery_metadata):
        data = json.loads(serialize_metadata(battery_metadata))
        assert next(iter(data)) == "function_name"

    def test_dmt_insertion_order_irrelevant(self, battery_metadata):
        reordered = MetadataSet(
            **{
                **battery_metadata.__dict__,
                "dmt": dict(reversed(list(battery_metadata.dmt.items()))),
            }
        )
        assert serialize_metadata(reordered) == serialize_metadata(battery_metadata)

    def test_round_trip_preserves_all_fields(self):
        m = MetadataSet(
            function_name="f",
            parameters=[ParameterField("x", "?number", "0"), ParameterField("", "Opts")],
            return_type="void",
            file_path="a/b.ts",
            package_module=None,
            dependency=None,
            control_flow_skeleton="loop",
            io_behavior="read",
            variable_modification="this.cache",
            dmt={"@usage": "f(1)"},
        )
        assert deserialize_metadata(serialize_metadata(m)) == m

    def test_none_and_empty_are_distinct(self):
        with_empty = MetadataSet(function_name="f", file_path="p", parameters=[])
        with_none = MetadataSet(function_name="f", file_path="p", parameters=None)
        assert deserialize_metadata(serialize_metadata(with_empty)).parameters == []
        assert deserialize_metadata(serialize_metadata(with_none)).parameters is None


class TestRecordShape:
    @pytest.mark.parametrize(
        "change, field",
        [
            ({"parameters": "zz"}, "'parameters' must be a list or null (got 'zz')"),
            ({"parameters": [1]}, "'parameters' item 0 must be an object (got 1)"),
            ({"parameters": [{"name": 3}]}, "'parameters' item 0 'name' must be a string (got 3)"),
            ({"parameters": [{"name": None}]},
             "'parameters' item 0 'name' must be a string (got None)"),
            ({"parameters": [{"name": "x", "type_annotation": []}]},
             "'parameters' item 0 'type_annotation' must be a string or null (got [])"),
            ({"dependency": "abc"}, "'dependency' must be a list or null (got 'abc')"),
            ({"dependency": [1]}, "'dependency' item 0 must be a string (got 1)"),
            ({"dmt": "x"}, "'dmt' must be an object (got 'x')"),
            ({"dmt": None}, "'dmt' must be an object (got None)"),
            ({"dmt": {"@since": 9}}, "'dmt' '@since' must be a string (got 9)"),
            ({"function_name": None}, "'function_name' must be a string (got None)"),
            ({"return_type": 5}, "'return_type' must be a string or null (got 5)"),
        ],
        ids=[  # each fault by the field at fault and the rule it breaks
            f"change{n}-{rule}"
            for n, rule in enumerate([
                "'parameters' must be a list of objects",
                "'parameters' must be a list of objects",
                "'parameters[0].name' must be a string",
                "'parameters[0].name' must be a string",
                "'parameters[0].type_annotation' must be a string",
                "'dependency' must be a list of strings",
                "'dependency' must be a list of strings",
                "'dmt' must be an object of strings",
                "'dmt' must be an object of strings",
                "'dmt' must be an object of strings",
                "'function_name' must be a string",
                "'return_type' must be a string",
            ])
        ],
    )
    def test_wrong_shape_names_the_field(self, change, field):
        with pytest.raises(ValueError) as err:
            metadata_from_dict({"function_name": "f", "file_path": "a.ts", **change})
        assert field in str(err.value)

    def test_null_marks_an_absent_field(self):
        m = metadata_from_dict(
            {"function_name": "f", "file_path": "a.ts", "dependency": None, "return_type": None,
             "parameters": [{"name": "x", "type_annotation": None}]}
        )
        assert m.dependency is None and m.return_type is None
        assert m.parameters == [ParameterField("x")]
