"""Seeded input generator for the benchmark workloads.

The generator is separate from the system under test: it imports nothing
from ``bitextpipe``. Everything it writes is a pure function of
(workload, seed, size), and it records the facts the output checker needs
(per-language counts after ingest, subset sizes, pair layout) in
``info.json`` beside the inputs.

Inputs are cached under ``<work>/inputs/<workload>-s<seed>-n<size>/`` so
that generation is never part of a timed region. ``info.json`` is written
last and marks a complete entry.
"""

from __future__ import annotations

import ast
import json
import operator
import random
import shutil
import string
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 1
# Not used while the benchmark was tuned; kept for confirming later claims.
HELDOUT_SEED = 7919

# Size per workload: raw corpus pairs for the two prep workloads, segments
# per language pair for score-mixed.
SIZES = {
    "pretrain-zipf": 85_000,
    "seed-longtail": 45_000,
    "score-mixed": 1_200,
}
WORKLOADS = tuple(SIZES)

PAPER_THRESHOLD = 10_000_000
AUGMENT_CHUNK = 4096  # rows per augment chunk in the CLI; scope of repeat_token_share
SEED_SUBSET_RATIOS = {  # test_seed_selection_budget, in thousands of pairs
    "ILCI": 700,
    "NLLB Seed": 180,
    "Massive": 600,
    "Daily": 420,
    "Wiki": 700,
}
SEED_BUDGET_SHARE = (2_260, 2_600)  # budget / pool, as in the same test
SCORE_PAIRS = ("hin_Deva-eng_Latn", "eng_Latn-hin_Deva", "eng_Latn-tam_Taml", "eng_Latn-urd_Arab")
PRETRAIN_LEXICONS = ("hin_Deva", "ben_Beng", "tam_Taml", "urd_Arab")
SEED_LEXICONS = ("hin_Deva", "ben_Beng", "tam_Taml", "tel_Telu", "mar_Deva", "urd_Arab")


def _span(first: int, last: int) -> str:
    return "".join(chr(c) for c in range(first, last + 1))


# Letters and combining marks used to build words in each Indic script.
SCRIPTS = {
    "Deva": (_span(0x0915, 0x0939), _span(0x093E, 0x094C)),
    "Beng": (_span(0x0995, 0x09A8), _span(0x09BE, 0x09C4)),
    "Gujr": (_span(0x0A95, 0x0AA8), _span(0x0ABE, 0x0AC5)),
    "Guru": (_span(0x0A15, 0x0A28), _span(0x0A3E, 0x0A42)),
    "Orya": (_span(0x0B15, 0x0B28), _span(0x0B3E, 0x0B44)),
    "Taml": ("கஙசஞடணதநபமயரலவழளறன", _span(0x0BBE, 0x0BC2)),
    "Telu": (_span(0x0C15, 0x0C28), _span(0x0C3E, 0x0C44)),
    "Knda": (_span(0x0C95, 0x0CA8), _span(0x0CBE, 0x0CC4)),
    "Mlym": (_span(0x0D15, 0x0D28), _span(0x0D3E, 0x0D44)),
    "Arab": (_span(0x0628, 0x063A), _span(0x064B, 0x0652)),
    "Mtei": (_span(0xABC0, 0xABDA), _span(0xABE3, 0xABEA)),
    "Olck": (_span(0x1C5A, 0x1C77), ""),
}
NOISE_SEPARATORS = ("  ", "   ", "\u00a0 ", " \u2009", " \u3000 ")


def reference_counts() -> dict[str, int]:
    """``REFERENCE_COUNTS`` read from ``tests/conftest.py`` without importing it."""
    path = ROOT / "tests" / "conftest.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REFERENCE_COUNTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"REFERENCE_COUNTS not found in {path}")


def largest_remainder(weights: dict[str, int], total: int) -> dict[str, int]:
    """Exact integer split of ``total`` proportional to integer ``weights``."""
    whole = sum(weights.values())
    alloc = {k: total * w // whole for k, w in weights.items()}
    order = sorted(weights, key=lambda k: (-(total * weights[k] % whole), k))
    for k in order[: total - sum(alloc.values())]:
        alloc[k] += 1
    return alloc


# ---------------------------------------------------------------------------
# Text building blocks


def _latin_words(rng: random.Random, n: int, lo: int = 2, hi: int = 10) -> list[str]:
    words: set[str] = set()
    letters = string.ascii_lowercase
    while len(words) < n:
        words.add("".join(rng.choices(letters, k=rng.randint(lo, hi))))
    return sorted(words)


def _script_words(rng: random.Random, script: str, n: int) -> list[str]:
    letters, marks = SCRIPTS[script]
    # A mark may follow each letter; an empty string stands for "no mark".
    marks_or_none = list(marks) + [""] * len(marks) if marks else [""]
    words: set[str] = set()
    while len(words) < n:
        k = rng.randint(2, 6)
        pairs = zip(rng.choices(letters, k=k), rng.choices(marks_or_none, k=k))
        words.add("".join(a + b for a, b in pairs))
    return sorted(words)


def _zipf_table(n: int, s: float = 1.1) -> list[int]:
    """Ranks 0..n-1 spread over 2**16 slots in proportion to 1/(rank+1)^s,
    so that a uniform 16-bit draw is a Zipf rank draw."""
    slots = 1 << 16
    weights = [1.0 / rank**s for rank in range(1, n + 1)]
    total = sum(weights)
    table: list[int] = []
    acc = 0.0
    for rank, weight in enumerate(weights):
        acc += weight
        table.extend([rank] * (round(acc / total * slots) - len(table)))
    return table


def _zipf_draw(rng: random.Random, table: list[int], k: int) -> list[int]:
    """``k`` Zipf ranks from a table of 2**16 slots."""
    return list(map(table.__getitem__, memoryview(rng.randbytes(2 * k)).cast("H")))


def _join_noisy(rng: random.Random, tokens: list[str], heavy: bool) -> str:
    """Join with a run of odd whitespace at 50% (heavy) or 15% of the gaps,
    and stray spaces at the ends."""
    cut = 128 if heavy else 38
    noise = NOISE_SEPARATORS
    parts = [" "] * (2 * len(tokens) + 1)
    parts[1::2] = tokens
    parts[2:-1:2] = [noise[f % len(noise)] if f < cut else " " for f in rng.randbytes(len(tokens) - 1)]
    parts[0] = noise[0][: rng.randrange(3)]
    parts[-1] = noise[0][: rng.randrange(3)]
    return "".join(parts)


def _decorate(rng: random.Random, tokens: list[str]) -> list[str]:
    """Sentence case, a final period and sometimes an edge comma."""
    tokens[0] = tokens[0].capitalize()
    if len(tokens) > 2 and rng.random() < 0.4:
        tokens[rng.randrange(len(tokens) - 1)] += ","
    if rng.random() < 0.7:
        tokens[-1] += "."
    return tokens


def _tsv_line(fields: tuple[str, ...]) -> str:
    return "\t".join(fields) + "\n"


def _repeat_share(rows: list[list]) -> float:
    """Share of tokens already seen earlier in the same augment chunk: the
    hits a per-token memo could get. ``rows`` lists each kept row's token
    cores (or any stand-in that is equal exactly when the cores are)."""
    tokens = repeats = 0
    for start in range(0, len(rows), AUGMENT_CHUNK):
        chunk = [core for row in rows[start : start + AUGMENT_CHUNK] for core in row]
        tokens += len(chunk)
        repeats += len(chunk) - len(set(chunk))
    return repeats / tokens if tokens else 0.0


# ---------------------------------------------------------------------------
# Workloads


def _gen_pretrain(rng: random.Random, size: int, out: Path) -> dict:
    reference = reference_counts()
    paper_total = sum(reference.values())
    counts = largest_remainder(reference, size)
    threshold = PAPER_THRESHOLD * size // paper_total
    over_at_paper = sorted(t for t, n in reference.items() if n > PAPER_THRESHOLD)

    vocab = _latin_words(rng, 30_000)
    rng.shuffle(vocab)
    script_vocab = {s: _script_words(rng, s, 2_000) for s in SCRIPTS}

    tags = [tag for tag, n in sorted(counts.items()) for _ in range(n)]
    rng.shuffle(tags)
    source_lengths = [5 + b % 21 for b in rng.randbytes(len(tags))]
    target_lengths = [5 + b % 21 for b in rng.randbytes(len(tags))]
    source_ranks = _zipf_draw(rng, _zipf_table(len(vocab)), sum(source_lengths))
    target_ranks = _zipf_draw(rng, _zipf_table(2_000), sum(target_lengths))
    kept: dict[str, int] = {}
    skipped = 0
    kept_ranks: list[list[int]] = []
    s_pos = t_pos = 0
    with open(out / "corpus.tsv", "w", encoding="utf-8", newline="\n") as handle:
        for tag, s_len, t_len in zip(tags, source_lengths, target_lengths):
            ranks = source_ranks[s_pos : s_pos + s_len]
            s_pos += s_len
            source_tokens = _decorate(rng, list(map(vocab.__getitem__, ranks)))
            words = script_vocab[tag.split("_")[1]]
            target_tokens = list(map(words.__getitem__, target_ranks[t_pos : t_pos + t_len]))
            t_pos += t_len
            noisy = rng.random() < 1 / 7
            source = _join_noisy(rng, source_tokens, False) if noisy else " ".join(source_tokens)
            target = _join_noisy(rng, target_tokens, False) if noisy else " ".join(target_tokens)
            if rng.random() < 1 / 3000:
                if rng.random() < 0.5:
                    source = rng.choice(("", "   "))
                else:
                    target = rng.choice(("", "   "))
            if source.split() and target.split():
                kept[tag] = kept.get(tag, 0) + 1
                kept_ranks.append(ranks)
            else:
                skipped += 1
            handle.write(_tsv_line(("eng_Latn", tag, source, target, "mined")))

    over = sorted(t for t, n in kept.items() if n > threshold)
    if over != over_at_paper:
        raise RuntimeError(f"scaled corpus halves {over}, paper scale halves {over_at_paper}")

    # MUSE lexicons: frequent words first, some frequent words missing, 1-3
    # translations per word, more than 4000 distinct words so top-K cuts.
    lexicons = {}
    for tag in PRETRAIN_LEXICONS:
        pool = [w for w in vocab[:9_000] if rng.random() < 0.6][:5_000]
        words = script_vocab[tag.split("_")[1]]
        path = out / f"muse_{tag}.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for word in pool:
                for translation in rng.sample(words, rng.randint(1, 3)):
                    handle.write(f"{word} {translation}\n")
        lexicons[tag] = path.name

    return {
        "corpus": "corpus.tsv",
        "pairs": size,
        "kept_counts": kept,
        "skipped": skipped,
        "threshold": threshold,
        "over_threshold": over,
        "lexicons": lexicons,
        "lexicon_format": "muse",
        "mode": "random-language",
        "input_repeat_token_share": _repeat_share(kept_ranks),
    }


_LATIN_TABLE = bytes(string.ascii_lowercase.encode()[i % 26] for i in range(256))


def _cut(blob: str, lengths: list[int]) -> list[str]:
    out = []
    pos = 0
    for n in lengths:
        out.append(blob[pos : pos + n])
        pos += n
    return out


def _random_latin(rng: random.Random, lengths: list[int]) -> list[str]:
    """Random lowercase words of the given lengths."""
    return _cut(rng.randbytes(sum(lengths)).translate(_LATIN_TABLE).decode("ascii"), lengths)


def _random_script(rng: random.Random, script: str, lengths: list[int]) -> list[str]:
    """Random letter-and-mark strings of one script, of the given lengths."""
    alphabet = "".join(SCRIPTS[script])
    table = {i: alphabet[i % len(alphabet)] for i in range(256)}
    return _cut(rng.randbytes(sum(lengths)).decode("latin-1").translate(table), lengths)


def _longtail_tokens(rng: random.Random, common: list[str], numbers: list[str], n: int) -> list[str]:
    """Mostly fresh random words; about 6% common words, 6% numbers and 6%
    words wrapped in edge punctuation."""
    tokens = _random_latin(rng, [3 + b % 9 for b in rng.randbytes(n)])
    kinds = rng.randbytes(n)
    picks = rng.randbytes(n)
    for i in [i for i, kind in enumerate(kinds) if kind < 46]:
        kind, pick = kinds[i], picks[i]
        if kind < 15:
            tokens[i] = common[pick % len(common)]
        elif kind < 30:
            tokens[i] = numbers[pick]
        else:
            tokens[i] = "(\"'"[pick % 3] + tokens[i] + (")", '",', "'.", ");")[pick % 4]
    return tokens


def _gen_longtail(rng: random.Random, size: int, out: Path) -> dict:
    subset_sizes = largest_remainder(SEED_SUBSET_RATIOS, size)
    budget = size * SEED_BUDGET_SHARE[0] // SEED_BUDGET_SHARE[1]
    tags = sorted(reference_counts())
    common = _latin_words(rng, 200, 2, 6)
    numbers = [
        rng.choice((str(rng.randint(0, 9999)), f"{rng.randint(1, 999)},{rng.randint(100, 999)}",
                    f"{rng.randint(0, 99)}.{rng.randint(0, 9)}%"))
        for _ in range(256)
    ]
    core = operator.methodcaller("strip", string.punctuation)
    # 16 copies of 4096 words: a 16-bit draw picks one uniformly.
    target_vocab = {s: _script_words(rng, s, 4_096) * 16 for s in SCRIPTS}

    labels = [label for label, n in subset_sizes.items() for _ in range(n)]
    rng.shuffle(labels)
    kept_subsets: dict[str, int] = {}
    kept: dict[str, int] = {}
    skipped = 0
    kept_cores: list[list[str]] = []
    with open(out / "pool.tsv", "w", encoding="utf-8", newline="\n") as handle:
        for label in labels:
            tag = rng.choice(tags)
            source_tokens = _longtail_tokens(rng, common, numbers, rng.randint(30, 80))
            words = target_vocab[tag.split("_")[1]]
            draws = memoryview(rng.randbytes(2 * rng.randint(30, 80))).cast("H")
            target_tokens = list(map(words.__getitem__, draws))
            heavy = rng.random() < 0.5
            source = _join_noisy(rng, source_tokens, heavy)
            target = _join_noisy(rng, target_tokens, heavy)
            if rng.random() < 1 / 3000:
                target = "  "
            if source.split() and target.split():
                kept_subsets[label] = kept_subsets.get(label, 0) + 1
                kept[tag] = kept.get(tag, 0) + 1
                kept_cores.append(list(map(str.casefold, map(core, source_tokens))))
            else:
                skipped += 1
            handle.write(_tsv_line(("eng_Latn", tag, source, target, label)))

    # Sparse GATITOS lexicons: a few common words, many words that never
    # occur, and multi-word phrases that are loaded but never substituted.
    lexicons = {}
    for tag in SEED_LEXICONS:
        script = tag.split("_")[1]
        path = out / f"gatitos_{tag}.tsv"
        absent = _latin_words(rng, 1_200, 4, 9)
        sources_for_lex = rng.sample(common, 60) + absent
        phrases = [" ".join(rng.sample(absent, 2)) for _ in range(150)]
        entries = sources_for_lex + phrases
        rng.shuffle(entries)
        translations = _random_script(rng, script, [rng.randint(3, 8) for _ in entries])
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for source, translation in zip(entries, translations):
                handle.write(f"{source}\t{translation}\n")
        lexicons[tag] = path.name

    return {
        "corpus": "pool.tsv",
        "pairs": size,
        "kept_counts": kept,
        "kept_subsets": kept_subsets,
        "skipped": skipped,
        "budget": budget,
        "lexicons": lexicons,
        "lexicon_format": "gatitos",
        "mode": "pair-target",
        "input_repeat_token_share": _repeat_share(kept_cores),
    }


def _perturb(rng: random.Random, tokens: list[str], vocab: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(tokens):
        r = rng.random()
        if r < 0.08:
            i += 1
            continue
        if r < 0.16:
            out.append(rng.choice(vocab))
        elif r < 0.22 and i + 1 < len(tokens):
            out.extend((tokens[i + 1], tokens[i]))
            i += 2
            continue
        else:
            out.append(tokens[i])
        i += 1
    return out or tokens[:1]


def _gen_score(rng: random.Random, size: int, out: Path) -> dict:
    english = _latin_words(rng, 12_000)
    rng.shuffle(english)
    table = _zipf_table(len(english))
    pairs = []
    for pair in SCORE_PAIRS:
        script = pair.split("-")[1].split("_")[1]
        vocab = english if script == "Latn" else _script_words(rng, script, len(english))
        refs = []
        hyps = []
        for _ in range(size):
            tokens = list(map(vocab.__getitem__, _zipf_draw(rng, table, rng.randint(8, 40))))
            if script == "Latn":
                tokens = _decorate(rng, tokens)
            elif rng.random() < 0.5:
                tokens[-1] += rng.choice(("।", ".", "?"))
            refs.append(" ".join(tokens))
            hyps.append(" ".join(_perturb(rng, tokens, vocab)))
        stem = pair.replace("-", "__")
        (out / f"{stem}.ref.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
        (out / f"{stem}.hyp.txt").write_text("\n".join(hyps) + "\n", encoding="utf-8")
        pairs.append({"pair": pair, "hyp": f"{stem}.hyp.txt", "ref": f"{stem}.ref.txt"})
    return {"pairs": size * len(SCORE_PAIRS), "segments_per_pair": size, "score_pairs": pairs}


_GENERATORS = {
    "pretrain-zipf": _gen_pretrain,
    "seed-longtail": _gen_longtail,
    "score-mixed": _gen_score,
}


def generate(workload: str, seed: int, size: int, out: Path) -> dict:
    """Write the inputs of one workload into ``out`` and return their facts."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"bench:{workload}:{seed}:{size}")
    started = time.perf_counter()
    info = _GENERATORS[workload](rng, size, out)
    files = sorted(p for p in out.iterdir() if p.is_file())
    info.update(
        workload=workload,
        seed=seed,
        size=size,
        input_bytes=sum(p.stat().st_size for p in files),
        files=[p.name for p in files],
        generate_s=time.perf_counter() - started,
    )
    (out / "info.json").write_text(json.dumps(info, indent=1, sort_keys=True) + "\n")
    return info


def ensure_inputs(work: Path, workload: str, seed: int, size: int, keep: int = 3) -> tuple[Path, dict]:
    """Cached inputs for (workload, seed, size); keeps the ``keep`` newest entries."""
    inputs = work / "inputs"
    entry = inputs / f"{workload}-s{seed}-n{size}"
    marker = entry / "info.json"
    if marker.exists():
        marker.touch()
        return entry, json.loads(marker.read_text())
    if entry.exists():
        shutil.rmtree(entry)
    info = generate(workload, seed, size, entry)
    siblings = sorted(
        (p for p in inputs.glob(f"{workload}-s*") if p != entry),
        key=lambda p: (p / "info.json").stat().st_mtime if (p / "info.json").exists() else 0,
    )
    for old in siblings[: max(0, len(siblings) - (keep - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return entry, info


def one_row_input(path: Path) -> Path:
    """The one-pair TSV that ``setup_s`` runs on."""
    path.write_text(_tsv_line(("eng_Latn", "hin_Deva", "hello world", "नमस्ते दुनिया", "setup")))
    return path

