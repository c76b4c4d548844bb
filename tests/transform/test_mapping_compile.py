"""Mapping.compile() is byte-identical to the interpreted path — on every
catalog mapping, not a sample: the catalog IS the deployed surface, so one
divergent mapping would silently corrupt documents on the wire.

Failure identity is covered too (validation errors, compute errors), and
the compile cache's invalidation on rule edits.
"""

import pytest

from repro.documents.normalized import (
    make_invoice,
    make_po_ack,
    make_purchase_order,
    make_quote,
    make_rfq,
    make_ship_notice,
)
from repro.errors import TransformError, ValidationError
from repro.transform.catalog import build_standard_registry, standard_mappings
from repro.transform.mapping import Field, Mapping

LINES = [
    {"sku": "LAPTOP-15", "quantity": 50, "unit_price": 1200.0},
    {"sku": "DOCK-1", "quantity": 5, "unit_price": 150.0},
]

CONTEXT = {"sender_id": "ACME", "receiver_id": "TP1", "now": 1.0}


def _normalized_samples():
    po = make_purchase_order("PO-1001", "TP1", "ACME", LINES)
    rfq = make_rfq("RFQ-7", "TP1", "ACME", [{"sku": "GPU", "quantity": 5}])
    return {
        "purchase_order": po,
        "po_ack": make_po_ack(po),
        "ship_notice": make_ship_notice(po, "SHIP-1"),
        "invoice": make_invoice(po, "INV-1"),
        "request_for_quote": rfq,
        "quote": make_quote(rfq, {"GPU": 1450.0}, "Q-1"),
    }


def _source_document(mapping, registry, samples):
    """A valid source document for ``mapping`` (wire docs via the registry)."""
    normalized = samples[mapping.doc_type]
    if mapping.source_format == "normalized":
        return normalized
    return registry.transform(normalized, mapping.source_format, CONTEXT)


@pytest.mark.parametrize(
    "mapping", standard_mappings(), ids=lambda mapping: mapping.name
)
def test_catalog_mapping_compiled_identical(mapping):
    registry = build_standard_registry()
    document = _source_document(mapping, registry, _normalized_samples())
    interpreted = mapping.apply(document, CONTEXT)
    compiled = mapping.compile().apply(document, CONTEXT)
    assert compiled.to_dict() == interpreted.to_dict()
    assert compiled.format_name == interpreted.format_name
    assert compiled.doc_type == interpreted.doc_type


def _failure(call, *args):
    try:
        call(*args)
    except (TransformError, ValidationError) as exc:
        return (type(exc).__name__, str(exc))
    return None


def test_validation_failure_identical():
    mapping = next(
        m for m in standard_mappings()
        if m.source_format == "normalized" and m.target_format == "edi-x12"
        and m.doc_type == "purchase_order"
    )
    bad = make_purchase_order("PO-X", "TP1", "ACME", LINES)
    bad.data.pop("summary")  # break the source schema
    interpreted = _failure(mapping.apply, bad, CONTEXT)
    compiled = _failure(mapping.compile().apply, bad, CONTEXT)
    assert interpreted is not None
    assert compiled == interpreted


def test_wrong_format_failure_identical():
    mapping = next(m for m in standard_mappings() if m.source_format == "normalized")
    registry = build_standard_registry()
    samples = _normalized_samples()
    wire = registry.transform(samples["purchase_order"], "edi-x12", CONTEXT)
    interpreted = _failure(mapping.apply, wire, CONTEXT)
    compiled = _failure(mapping.compile().apply, wire, CONTEXT)
    assert interpreted is not None
    assert compiled == interpreted


def test_compile_cache_reuses_and_invalidates():
    mapping = Mapping("m", "a", "b", "t")
    mapping.rules.append(Field("x", "y"))
    first = mapping.compile()
    assert mapping.compile() is first  # cached while rules are unchanged
    mapping.rules.append(Field("x2", "y2"))
    second = mapping.compile()
    assert second is not first  # rule edit rebuilds the compiled form

    from repro.documents.model import Document

    document = Document("a", "t", {"x": 1, "x2": 2})
    assert second.apply(document).to_dict() == mapping.apply(document).to_dict()


def test_compile_keying_is_identity_based():
    # Regression: the old cache key was tuple(map(id, rules)); a replaced
    # rule object could reuse the freed id and false-hit.  The snapshot now
    # holds strong references and compares by identity.
    from repro.documents.model import Document

    mapping = Mapping("m", "a", "b", "t", [Field("x", "y")])
    first = mapping.compile()
    assert mapping.compile() is first
    mapping.rules[0] = Field("x", "z")  # in-place replacement, same length
    second = mapping.compile()
    assert second is not first
    document = Document("a", "t", {"x": 7})
    assert second.apply(document).get("z") == 7
