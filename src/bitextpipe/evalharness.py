"""Per-language-pair scoring and report tables.

Each row carries BLEU, chrF, and chrF++ for one direction. The rendered
table shows scores to one decimal and the average row to two decimals;
the machine-readable TSV keeps four decimals per row. The average covers
the rows that are present, nothing is imputed for missing pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Mapping, Sequence

from . import errors, metrics
from .errors import MetricError
from .lang import LanguageTag, parse_pair
from .metrics import BLEU_SIGNATURE, CHRF, CHRF_PP, ChrfStats

_TSV_HEADER = "pair\tbleu\tchrf\tchrfpp"


@dataclass(frozen=True)
class ScoreRow:
    src_lang: LanguageTag
    tgt_lang: LanguageTag
    bleu: float
    chrf: float
    chrf_pp: float

    @property
    def pair(self) -> str:
        return f"{self.src_lang}-{self.tgt_lang}"


@dataclass(frozen=True)
class ScoreReport:
    rows: tuple[ScoreRow, ...]
    metadata: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.rows:
            raise MetricError("report needs at least one row")

    @property
    def averages(self) -> tuple[float, float, float]:
        """Arithmetic column means over present rows, rounded to 2 decimals."""
        n = len(self.rows)
        return (
            round(sum(r.bleu for r in self.rows) / n, 2),
            round(sum(r.chrf for r in self.rows) / n, 2),
            round(sum(r.chrf_pp for r in self.rows) / n, 2),
        )


def read_lines(path: str | Path) -> list[str]:
    """Lines split on ``\n`` only, without their line endings.

    A lone ``\r`` stays inside its line, as in :func:`corpus.iter_lines`
    and sacreBLEU, so line counts agree across readers.
    """
    return errors.read_lines(path, MetricError)


def score_run(
    hyp_path: str | Path, ref_path: str | Path, pair: tuple[LanguageTag, LanguageTag]
) -> ScoreRow:
    """Score one system output file against its reference file."""
    hyps = read_lines(hyp_path)
    refs = read_lines(ref_path)
    if len(hyps) != len(refs):
        raise MetricError(
            f"{hyp_path} has {len(hyps)} lines but {ref_path} has {len(refs)}"
        )
    if not hyps:
        raise MetricError(f"{hyp_path} is empty")
    src_lang, tgt_lang = pair
    # One n-gram pass: chrF's statistics are the character-order prefix of chrF++'s.
    pp_stats = metrics.sum_stats(metrics.chrf_segment_stats, hyps, refs, CHRF_PP)
    chrf_stats = ChrfStats(pp_stats.counts[: 3 * CHRF.order])
    return ScoreRow(
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        bleu=metrics.bleu(hyps, refs).value,
        chrf=metrics.chrf_from_stats(chrf_stats, CHRF).value,
        chrf_pp=metrics.chrf_from_stats(pp_stats, CHRF_PP).value,
    )


def report(rows: Sequence[ScoreRow], metadata: Mapping[str, str] | None = None) -> ScoreReport:
    meta = dict(metadata) if metadata else {}
    meta.setdefault("bleu_signature", BLEU_SIGNATURE)
    meta.setdefault("chrf_signature", CHRF.signature)
    meta.setdefault("chrfpp_signature", CHRF_PP.signature)
    return ScoreReport(tuple(rows), meta)


def render_text(rep: ScoreReport) -> str:
    """Aligned plain-text table: rows at 1 decimal, average at 2 decimals."""
    pair_w = max([len(r.pair) for r in rep.rows] + [len("Language pair"), len("Avg.")])
    lines = [f"{'Language pair':<{pair_w}}  {'BLEU':>7}  {'chrF':>7}  {'chrF++':>7}"]
    for row in rep.rows:
        lines.append(
            f"{row.pair:<{pair_w}}  {row.bleu:>7.1f}  {row.chrf:>7.1f}  {row.chrf_pp:>7.1f}"
        )
    avg_bleu, avg_chrf, avg_chrfpp = rep.averages
    lines.append(
        f"{'Avg.':<{pair_w}}  {avg_bleu:>7.2f}  {avg_chrf:>7.2f}  {avg_chrfpp:>7.2f}"
    )
    return "\n".join(lines)


def write_rows_tsv(rows: Sequence[ScoreRow], path: str | Path) -> None:
    """Row file without the average, for later aggregation."""
    lines = [_TSV_HEADER]
    for row in rows:
        lines.append(f"{row.pair}\t{row.bleu:.4f}\t{row.chrf:.4f}\t{row.chrf_pp:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report_tsv(rep: ScoreReport, path: str | Path) -> None:
    """Full report TSV with the average row appended."""
    lines = [_TSV_HEADER]
    for row in rep.rows:
        lines.append(f"{row.pair}\t{row.bleu:.4f}\t{row.chrf:.4f}\t{row.chrf_pp:.4f}")
    avg_bleu, avg_chrf, avg_chrfpp = rep.averages
    lines.append(f"Avg.\t{avg_bleu:.2f}\t{avg_chrf:.2f}\t{avg_chrfpp:.2f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_rows_tsv(path: str | Path, extra_tags: Collection[LanguageTag] = ()) -> list[ScoreRow]:
    """Parse a row file produced by :func:`write_rows_tsv`."""
    rows: list[ScoreRow] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line or line == _TSV_HEADER:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise MetricError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        if fields[0] == "Avg.":
            continue
        src_lang, tgt_lang = parse_pair(fields[0], extra_tags)
        try:
            bleu_v, chrf_v, chrfpp_v = (float(f) for f in fields[1:])
        except ValueError as exc:
            raise MetricError(f"{path}:{lineno}: bad score value: {exc}") from exc
        rows.append(ScoreRow(src_lang, tgt_lang, bleu_v, chrf_v, chrfpp_v))
    if not rows:
        raise MetricError(f"{path}: no score rows found")
    return rows
