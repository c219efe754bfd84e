"""Rule modules register themselves on import (see ``core.register_rule``)."""

from repro.lint.rules import (  # noqa: F401
    rep001_atomic_write,
    rep002_fault_sites,
    rep004_error_taxonomy,
    rep005_lock_discipline,
    rep006_schema_version,
)
