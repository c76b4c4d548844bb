"""Tests for the five wire/back-end formats: structure, parsing, errors.

Each format gets the same treatment: wire round trip, envelope assertions,
schema checks, and malformed-input rejection.  The format documents are
produced from the normalized fixtures through the standard catalog — the
same path production code uses.
"""

import pytest

from repro.documents import edi, idoc, oagis, oracle_oif, rosettanet
from repro.errors import WireFormatError

FORMATS = {
    "edi": (edi, edi.EDI_X12),
    "rosettanet": (rosettanet, rosettanet.ROSETTANET),
    "oagis": (oagis, oagis.OAGIS),
    "idoc": (idoc, idoc.SAP_IDOC),
    "oif": (oracle_oif, oracle_oif.ORACLE_OIF),
}


@pytest.fixture(params=sorted(FORMATS))
def format_module(request):
    return FORMATS[request.param]


class TestWireRoundTrips:
    def test_po_roundtrip(self, format_module, registry, sample_po):
        module, format_name = format_module
        wire_doc = registry.transform(sample_po, format_name)
        assert module.from_wire(module.to_wire(wire_doc)) == wire_doc

    def test_poa_roundtrip(self, format_module, registry, sample_poa):
        module, format_name = format_module
        wire_doc = registry.transform(sample_poa, format_name)
        assert module.from_wire(module.to_wire(wire_doc)) == wire_doc

    def test_to_wire_rejects_wrong_format(self, format_module, sample_po):
        module, _ = format_module
        with pytest.raises(WireFormatError):
            module.to_wire(sample_po)  # normalized, not this format

    def test_from_wire_rejects_empty(self, format_module):
        module, _ = format_module
        with pytest.raises(WireFormatError):
            module.from_wire("")

    def test_from_wire_rejects_garbage(self, format_module):
        module, _ = format_module
        with pytest.raises(WireFormatError):
            module.from_wire("this is not a business document")

    def test_truncated_wire_rejected(self, format_module, registry, sample_po):
        # Structural corruption (a cut-off transmission) must be detected by
        # every parser.  Mid-value garbage inside a freeform field is
        # legitimately undetectable without checksums, so that is not
        # asserted here.
        module, format_name = format_module
        text = module.to_wire(registry.transform(sample_po, format_name))
        with pytest.raises(WireFormatError):
            module.from_wire(text[: len(text) // 2])



# The first purchase-order line's line-number field in each wire format, and
# how to write another value into it.
LINE_NUMBER_FIELDS = {
    "edi": ("PO1*1*", "PO1*{}*"),
    "rosettanet": ("<LineNumber>1</LineNumber>", "<LineNumber>{}</LineNumber>"),
    "oagis": ("<LineNumber>1</LineNumber>", "<LineNumber>{}</LineNumber>"),
    "idoc": ("E1EDP01   1     ", "E1EDP01   {:<6}"),
    "oif": ("LINE_NUM=1|", "LINE_NUM={}|"),
}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", ["NaN", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_non_finite_line_number_rejected(self, name, value, registry, sample_po):
        module, format_name = FORMATS[name]
        original, template = LINE_NUMBER_FIELDS[name]
        text = module.to_wire(registry.transform(sample_po, format_name))
        assert original in text
        with pytest.raises(WireFormatError, match="non-finite"):
            module.from_wire(text.replace(original, template.format(value), 1))

class TestEdiSpecifics:
    def test_segments_and_envelope(self, registry, sample_po):
        text = edi.to_wire(registry.transform(sample_po, edi.EDI_X12))
        segments = [s.split("*")[0] for s in text.strip().split("~") if s]
        assert segments[0] == "ISA"
        assert segments[1] == "GS"
        assert segments[2] == "ST"
        assert segments[-1] == "IEA"
        assert segments.count("PO1") == 2
        assert "PID" in segments  # line 1 has a description

    def test_850_transaction_set(self, registry, sample_po):
        doc = registry.transform(sample_po, edi.EDI_X12)
        assert doc.get("st.transaction_set") == "850"
        assert edi.edi_po_schema().is_valid(doc)

    def test_855_transaction_set(self, registry, sample_poa):
        doc = registry.transform(sample_poa, edi.EDI_X12)
        assert doc.get("st.transaction_set") == "855"
        assert edi.edi_poa_schema().is_valid(doc)

    def test_reserved_delimiter_in_value_rejected(self, registry, sample_po):
        doc = registry.transform(sample_po, edi.EDI_X12)
        doc.set("beg.po_number", "PO*1")
        with pytest.raises(WireFormatError):
            edi.to_wire(doc)

    def test_se_control_number_mismatch_rejected(self, registry, sample_po):
        text = edi.to_wire(registry.transform(sample_po, edi.EDI_X12))
        tampered = text.replace("SE*", "SE*999*", 1)
        with pytest.raises(WireFormatError):
            edi.from_wire(tampered)

    def test_unsupported_transaction_set(self, registry, sample_po):
        text = edi.to_wire(registry.transform(sample_po, edi.EDI_X12))
        with pytest.raises(WireFormatError):
            edi.from_wire(text.replace("ST*850", "ST*810"))

    def test_missing_lines_rejected(self):
        with pytest.raises(WireFormatError):
            edi.from_wire("ISA*00**00**ZZ*A*ZZ*B*0*0000*U*00401*1*0*P*>~GS*PO*A*B*0*0000*1*X*004010~ST*850*0001~")


class TestRosettaNetSpecifics:
    def test_root_elements(self, registry, sample_po, sample_poa):
        po_text = rosettanet.to_wire(registry.transform(sample_po, rosettanet.ROSETTANET))
        poa_text = rosettanet.to_wire(registry.transform(sample_poa, rosettanet.ROSETTANET))
        assert "<Pip3A4PurchaseOrderRequest>" in po_text
        assert "<Pip3A4PurchaseOrderConfirmation>" in poa_text

    def test_roles(self, registry, sample_po, sample_poa):
        po_doc = registry.transform(sample_po, rosettanet.ROSETTANET)
        poa_doc = registry.transform(sample_poa, rosettanet.ROSETTANET)
        assert po_doc.get("service_header.from_role") == "Buyer"
        assert poa_doc.get("service_header.from_role") == "Seller"

    def test_unknown_response_code_rejected(self, registry, sample_poa):
        text = rosettanet.to_wire(registry.transform(sample_poa, rosettanet.ROSETTANET))
        with pytest.raises(WireFormatError):
            rosettanet.from_wire(
                text.replace("<GlobalResponseCode>Partial", "<GlobalResponseCode>Whatever")
            )

    def test_unknown_root_rejected(self):
        with pytest.raises(WireFormatError):
            rosettanet.from_wire("<SomethingElse/>")

    def test_request_without_lines_rejected(self, registry, sample_po):
        doc = registry.transform(sample_po, rosettanet.ROSETTANET)
        doc.set("order.product_lines", [])
        text = rosettanet.to_wire(doc)
        with pytest.raises(WireFormatError):
            rosettanet.from_wire(text)


class TestOagisSpecifics:
    def test_bod_structure(self, registry, sample_po):
        text = oagis.to_wire(registry.transform(sample_po, oagis.OAGIS))
        assert "<ProcessPurchaseOrder" in text
        assert "<ApplicationArea>" in text
        assert "<DataArea>" in text
        assert "<Process/>" in text

    def test_acknowledge_verb(self, registry, sample_poa):
        text = oagis.to_wire(registry.transform(sample_poa, oagis.OAGIS))
        assert "<AcknowledgePurchaseOrder" in text
        assert "<Acknowledge/>" in text

    def test_missing_verb_rejected(self, registry, sample_po):
        text = oagis.to_wire(registry.transform(sample_po, oagis.OAGIS))
        with pytest.raises(WireFormatError):
            oagis.from_wire(text.replace("<Process/>", "<NotAVerb/>"))

    def test_unknown_ack_code_rejected(self, registry, sample_poa):
        text = oagis.to_wire(registry.transform(sample_poa, oagis.OAGIS))
        with pytest.raises(WireFormatError):
            oagis.from_wire(
                text.replace("<AcknowledgeCode>Modified", "<AcknowledgeCode>Meh")
            )


class TestIdocSpecifics:
    def test_segment_layout(self, registry, sample_po):
        text = idoc.to_wire(registry.transform(sample_po, idoc.SAP_IDOC))
        lines = text.splitlines()
        assert lines[0].startswith("EDI_DC40")
        assert lines[1].startswith("E1EDK01")
        assert sum(1 for line in lines if line.startswith("E1EDKA1")) == 2
        assert sum(1 for line in lines if line.startswith("E1EDP01")) == 2
        assert lines[-1].startswith("E1EDS01")

    def test_message_types(self, registry, sample_po, sample_poa):
        po_doc = registry.transform(sample_po, idoc.SAP_IDOC)
        poa_doc = registry.transform(sample_poa, idoc.SAP_IDOC)
        assert po_doc.get("control.message_type") == "ORDERS"
        assert poa_doc.get("control.message_type") == "ORDRSP"

    def test_field_overflow_rejected(self, registry, sample_po):
        doc = registry.transform(sample_po, idoc.SAP_IDOC)
        doc.set("header.curcy", "TOOLONG")
        with pytest.raises(WireFormatError):
            idoc.to_wire(doc)

    def test_unknown_segment_rejected(self):
        with pytest.raises(WireFormatError):
            idoc.from_wire("E9UNKNOWN  somedata")

    def test_duplicate_control_record_rejected(self, registry, sample_po):
        text = idoc.to_wire(registry.transform(sample_po, idoc.SAP_IDOC))
        first_line = text.splitlines()[0]
        with pytest.raises(WireFormatError):
            idoc.from_wire(first_line + "\n" + text)


class TestOifSpecifics:
    def test_record_layout(self, registry, sample_po):
        text = oracle_oif.to_wire(registry.transform(sample_po, oracle_oif.ORACLE_OIF))
        lines = text.splitlines()
        assert lines[0].startswith("PO_HEADERS_INTERFACE|")
        assert all(line.startswith("PO_LINES_INTERFACE|") for line in lines[1:])

    def test_pipe_in_value_escaped(self, registry, sample_po):
        doc = registry.transform(sample_po, oracle_oif.ORACLE_OIF)
        doc.set("lines[0].item_description", "big|pipe")
        parsed = oracle_oif.from_wire(oracle_oif.to_wire(doc))
        assert parsed.get("lines[0].item_description") == "big|pipe"

    def test_newline_in_value_escaped(self, registry, sample_po):
        doc = registry.transform(sample_po, oracle_oif.ORACLE_OIF)
        doc.set("lines[0].item_description", "two\nlines")
        parsed = oracle_oif.from_wire(oracle_oif.to_wire(doc))
        assert parsed.get("lines[0].item_description") == "two\nlines"

    def test_two_headers_rejected(self, registry, sample_po):
        text = oracle_oif.to_wire(registry.transform(sample_po, oracle_oif.ORACLE_OIF))
        header = text.splitlines()[0]
        with pytest.raises(WireFormatError):
            oracle_oif.from_wire(header + "\n" + text)

    def test_missing_column_rejected(self):
        with pytest.raises(WireFormatError):
            oracle_oif.from_wire("PO_HEADERS_INTERFACE|DOCUMENT_NUM=P1")

    def test_unknown_table_rejected(self):
        with pytest.raises(WireFormatError):
            oracle_oif.from_wire("PO_SECRET_TABLE|X=1")
