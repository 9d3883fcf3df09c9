"""Per-language-pair scoring and report tables.

Each row carries BLEU, chrF, and chrF++ for one direction. The rendered
table shows scores to one decimal and the average row to two decimals;
the machine-readable TSV keeps four decimals per row. The average covers
the rows that are present, nothing is imputed for missing pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterator, Sequence

from . import errors, metrics
from .corpus import Work, ordered_map, write_tsv_rows
from .errors import MetricError
from .lang import LanguageTag, parse_pair
from .metrics import BLEU_SIGNATURE, CHRF, CHRF_PP, BleuStats, ChrfStats

_TSV_HEADER = "pair\tbleu\tchrf\tchrfpp"

# Segment pairs per unit of scoring work: enough to outweigh sending the
# chunk to a worker, few enough that a 1,000-segment test set makes four.
CHUNK_SEGMENTS = 256

# The configuration behind each score column, recorded in run.json.
SIGNATURES = {"bleu": BLEU_SIGNATURE, "chrf": CHRF.signature, "chrfpp": CHRF_PP.signature}


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

    A lone ``\r`` stays inside its line, as in sacreBLEU: this is
    :func:`errors.iter_lines`, the reader of every input file.
    """
    return list(errors.iter_lines(path, MetricError))


def score_run(
    hyp_path: str | Path,
    ref_path: str | Path,
    pair: tuple[LanguageTag, LanguageTag],
    threads: int = 1,
) -> ScoreRow:
    """Score one system output file against its reference file.

    Both files are read once, in step, in this process, and their segments
    are scored in chunks of :data:`CHUNK_SEGMENTS` on up to ``threads``
    worker processes (:func:`corpus.ordered_map`). The statistics of every
    chunk are summed in order, so no file is held whole and the scores equal
    a one-process run over the whole lists.
    """
    bleu_stats, pp_stats = ordered_map(
        _chunks(hyp_path, ref_path), threads, _chunk_stats, _add_stats, (BleuStats(), ChrfStats())
    )
    src_lang, tgt_lang = pair
    # One n-gram pass: chrF's statistics are the character-order prefix of chrF++'s.
    chrf_stats = ChrfStats(pp_stats.counts[: 3 * CHRF.order])
    return ScoreRow(
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        bleu=metrics.bleu_from_stats(bleu_stats).value,
        chrf=metrics.chrf_from_stats(chrf_stats, CHRF).value,
        chrf_pp=metrics.chrf_from_stats(pp_stats, CHRF_PP).value,
    )


def _chunks(hyp_path: str | Path, ref_path: str | Path) -> Iterator[list[tuple[str, str]]]:
    """Aligned (hypothesis, reference) segments in chunks, both files read in step.

    The errors are those of reading each file whole, hypotheses first:
    the hypothesis file's read error, then the reference file's, then a
    line-count mismatch (both files counted to the end) or an empty input.
    """
    hyps = errors.iter_lines(hyp_path, MetricError)
    refs = errors.iter_lines(ref_path, MetricError)
    n_hyp = n_ref = 0
    chunk: list[tuple[str, str]] = []
    for hyp in hyps:
        n_hyp += 1
        try:
            ref = next(refs, None)
        except MetricError:
            for _ in hyps:  # an error further on in the hypotheses comes first
                pass
            raise
        if ref is None:  # the references ended: only count the hypotheses
            continue
        n_ref += 1
        chunk.append((hyp, ref))
        if len(chunk) == CHUNK_SEGMENTS:
            yield chunk
            chunk = []
    n_ref += sum(1 for _ in refs)
    if n_hyp != n_ref:
        raise MetricError(f"{hyp_path} has {n_hyp} lines but {ref_path} has {n_ref}")
    if not n_hyp:
        raise MetricError(f"{hyp_path} is empty")
    if chunk:
        yield chunk


def _chunk_stats(chunk: list[tuple[str, str]]) -> Work[tuple[BleuStats, ChrfStats]]:
    """The work function of ``score``: summed BLEU and chrF++ statistics of
    one chunk of segments, and no output."""
    hyps, refs = zip(*chunk)
    return (
        metrics.sum_stats(metrics.bleu_segment_stats, hyps, refs),
        metrics.sum_stats(metrics.chrf_segment_stats, hyps, refs, CHRF_PP),
    )
    yield  # a generator, as every work function is


def _add_stats(total: tuple[BleuStats, ChrfStats],
               part: tuple[BleuStats, ChrfStats]) -> tuple[BleuStats, ChrfStats]:
    return total[0] + part[0], total[1] + part[1]


def report(rows: Sequence[ScoreRow]) -> ScoreReport:
    return ScoreReport(tuple(rows))


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


def _tsv_lines(rows: Sequence[ScoreRow]) -> list[str]:
    """The header and one line per score row, shared by the row file and the report."""
    return [_TSV_HEADER] + [
        f"{row.pair}\t{row.bleu:.4f}\t{row.chrf:.4f}\t{row.chrf_pp:.4f}" for row in rows
    ]


def write_rows_tsv(rows: Sequence[ScoreRow], path: str | Path) -> None:
    """Row file without the average, for later aggregation."""
    write_tsv_rows(_tsv_lines(rows), path)


def write_report_tsv(rep: ScoreReport, path: str | Path) -> None:
    """Full report TSV with the average row appended."""
    avg_bleu, avg_chrf, avg_chrfpp = rep.averages
    average = f"Avg.\t{avg_bleu:.2f}\t{avg_chrf:.2f}\t{avg_chrfpp:.2f}"
    write_tsv_rows(_tsv_lines(rep.rows) + [average], path)


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
