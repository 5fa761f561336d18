"""Invalidation-report data structures and bit-size accounting."""

from .amnesic import AmnesicReport, build_amnesic_report
from .base import Invalidation, Report, ReportKind, UpdateLog
from .bitseq import (
    BitSequenceReport,
    build_bitseq_report,
    decode_levels,
    level_counts_for,
)
from .signatures import (
    IncrementalCombiner,
    SignatureReport,
    SignatureScheme,
    build_signature_report,
    item_signature,
    subsets_of_item,
)
from .sizes import (
    DEFAULT_TIMESTAMP_BITS,
    REPORT_TAG_BITS,
    amnesic_report_bits,
    bitseq_report_bits,
    checking_upload_bits,
    enlarged_window_report_bits,
    id_bits,
    signature_report_bits,
    tlb_upload_bits,
    validity_report_bits,
    window_report_bits,
)
from .window import (
    EnlargedWindowReport,
    WindowReport,
    build_enlarged_window_report,
    build_window_report,
    enlarged_report_size,
)

__all__ = [
    "AmnesicReport",
    "BitSequenceReport",
    "DEFAULT_TIMESTAMP_BITS",
    "EnlargedWindowReport",
    "IncrementalCombiner",
    "Invalidation",
    "REPORT_TAG_BITS",
    "Report",
    "ReportKind",
    "SignatureReport",
    "SignatureScheme",
    "UpdateLog",
    "WindowReport",
    "amnesic_report_bits",
    "bitseq_report_bits",
    "build_amnesic_report",
    "build_bitseq_report",
    "build_enlarged_window_report",
    "build_signature_report",
    "build_window_report",
    "checking_upload_bits",
    "decode_levels",
    "enlarged_report_size",
    "enlarged_window_report_bits",
    "id_bits",
    "item_signature",
    "level_counts_for",
    "signature_report_bits",
    "subsets_of_item",
    "tlb_upload_bits",
    "validity_report_bits",
    "window_report_bits",
]
