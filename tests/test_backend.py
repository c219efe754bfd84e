"""Tests for how specs treat the retired ``solver.array_backend`` field.

numpy is the only array backend; these check that documents written before
and after the field existed still load, and that the schema gate holds.
"""

import pytest

from repro.api.spec import SimulationSpec, SpecError


class TestSpecIntegration:
    def test_v1_document_without_array_backend_still_loads(self):
        document = SimulationSpec().to_dict()
        document["schema_version"] = 1
        del document["solver"]["array_backend"]
        del document["solver"]["shard"]
        spec = SimulationSpec.from_dict(document)
        assert spec.to_dict()["solver"]["array_backend"] == "numpy"
        assert spec.to_dict()["solver"]["shard"] is None

    def test_future_schema_version_rejected(self):
        document = SimulationSpec().to_dict()
        document["schema_version"] = 99
        with pytest.raises(SpecError, match="schema_version"):
            SimulationSpec.from_dict(document)
