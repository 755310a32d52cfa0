"""Byte-pair encoding over SMILES strings.

The base alphabet is the set of characters seen in the training corpus (SMILES
is ASCII in practice), so multi-character atoms like "Br" and "Cl" are learned
as merges.  Each SMILES string is one BPE word; there is no whitespace
pre-splitting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

PAD_ID, UNK_ID, BOS_ID, EOS_ID, MASK_ID = 0, 1, 2, 3, 4
PAD, UNK, BOS, EOS, MASK = "<pad>", "<unk>", "<bos>", "<eos>", "<mask>"
SPECIAL_TOKENS = (PAD, UNK, BOS, EOS, MASK)
N_SPECIALS = len(SPECIAL_TOKENS)

FORMAT_HEADER = "ontograft-tokenizer"
FORMAT_VERSION = 2
# First line of each readable format version -> the header lines after it.
# v2 adds the merge count, so a file cut on a line boundary inside [merges]
# is caught.
_HEADER_KEYS = {
    f"{FORMAT_HEADER} v1": ("max_len",),
    f"{FORMAT_HEADER} v{FORMAT_VERSION}": ("max_len", "merges"),
}


class TokenizerError(Exception):
    pass


class SequenceTooLongError(TokenizerError):
    def __init__(self, length: int, max_len: int):
        super().__init__(f"encoded length {length} exceeds max_len {max_len}")
        self.length = length
        self.max_len = max_len


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token string <-> contiguous id map; ids 0..4 are reserved."""

    tokens: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.tokens[:N_SPECIALS]) != SPECIAL_TOKENS:
            raise TokenizerError("vocabulary must start with the reserved tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise TokenizerError("duplicate token in vocabulary")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int:
        return self._index[token]

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]


@dataclass
class TokenSequence:
    """Token ids for one string, BOS-prefixed and EOS-suffixed, never padded."""

    ids: tuple[int, ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Tokenizer:
    vocab: Vocabulary
    merges: tuple[tuple[str, str], ...]
    max_len: int = 512

    def encode(self, smiles: str, truncate: bool = False) -> TokenSequence:
        """Character-split, apply merges in training order, add BOS/EOS.

        Characters outside the training alphabet map to UNK.  Sequences longer
        than max_len raise by default; with ``truncate=True`` they are cut to
        fit and flagged.
        """
        if not smiles:
            raise TokenizerError("cannot encode an empty string")
        parts = [c if c in self.vocab else UNK for c in smiles]
        for left, right in self.merges:
            parts = _apply_merge(parts, left, right)
        truncated = False
        if len(parts) + 2 > self.max_len:
            if not truncate:
                raise SequenceTooLongError(len(parts) + 2, self.max_len)
            parts = parts[: self.max_len - 2]
            truncated = True
        ids = (BOS_ID,) + tuple(self.vocab.id_of(p) for p in parts) + (EOS_ID,)
        return TokenSequence(ids, truncated=truncated)

    def decode(self, seq: TokenSequence) -> tuple[str, bool]:
        """Concatenate token strings, stripping PAD/BOS/EOS.

        Returns (text, lossy); lossy is set when the sequence contains UNK,
        which decodes to a visible placeholder.
        """
        out: list[str] = []
        lossy = False
        for token_id in seq.ids:
            if token_id in (PAD_ID, BOS_ID, EOS_ID):
                continue
            if token_id == UNK_ID:
                lossy = True
            out.append(self.vocab.token_of(token_id))
        return "".join(out), lossy

    def token_strings(self, seq: TokenSequence) -> list[str]:
        return [self.vocab.token_of(i) for i in seq.ids]

    def save(self, path) -> None:
        from ._io import atomic_write_text

        lines = [
            f"{FORMAT_HEADER} v{FORMAT_VERSION}", f"max_len\t{self.max_len}",
            f"merges\t{len(self.merges)}", "[vocab]",
        ]
        lines.extend(f"{i}\t{token}" for i, token in enumerate(self.vocab.tokens))
        lines.append("[merges]")
        lines.extend(f"{left}\t{right}" for left, right in self.merges)
        atomic_write_text(path, "\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "Tokenizer":
        """Inverse of ``save``; files of format v1, which have no merge
        count, load as well.  A file cut short raises TokenizerError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            lines = text.split("\n")
            keys = _HEADER_KEYS.get(lines[0])
            if keys is None:
                raise TokenizerError(
                    f"{path}: not a {FORMAT_HEADER} v1 or v{FORMAT_VERSION} file"
                )
            if not text.endswith("\n"):
                # save() ends every file with a newline; a cut mid-line has none.
                raise ValueError("no final newline")
            vocab_line = len(keys) + 1
            header = dict(line.partition("\t")[::2] for line in lines[1:vocab_line])
            if tuple(header) != keys or lines[vocab_line] != "[vocab]":
                raise TokenizerError(f"{path}: malformed header")
            merge_start = lines.index("[merges]")  # ValueError if the file ends first
            entries = [line.split("\t", 1) for line in lines[vocab_line + 1:merge_start] if line]
            if [int(i) for i, _ in entries] != list(range(len(entries))):
                raise TokenizerError(f"{path}: vocabulary ids are not contiguous")
            merges = [tuple(line.split("\t", 1)) for line in lines[merge_start + 1:] if line]
            if any(len(merge) != 2 for merge in merges):
                raise TokenizerError(f"{path}: malformed merge line")
            if len(merges) != int(header.get("merges", len(merges))):
                raise ValueError("merge count differs from the header")
            max_len = int(header["max_len"])
        except (IndexError, ValueError):  # ValueError includes UnicodeDecodeError
            raise TokenizerError(f"{path}: truncated or corrupt tokenizer file") from None
        tokens = tuple(token for _, token in entries)
        return Tokenizer(Vocabulary(tokens), tuple(merges), max_len=max_len)


def _apply_merge(parts: list[str], left: str, right: str) -> list[str]:
    """Merge non-overlapping (left, right) occurrences, left to right."""
    if left not in parts:
        return parts
    out: list[str] = []
    i = 0
    n = len(parts)
    merged = left + right
    while i < n:
        if i + 1 < n and parts[i] == left and parts[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(parts[i])
            i += 1
    return out


def train_bpe(
    corpus: list[str],
    target_vocab: int,
    max_len: int = 512,
    min_frequency: int = 2,
) -> Tokenizer:
    """Learn a BPE vocabulary of at most target_vocab tokens from the corpus.

    Merges are added by descending pair frequency until the vocabulary is full
    or no pair occurs at least min_frequency times.  Frequency ties break
    lexicographically on the (left, right) token strings, so training is
    deterministic.
    """
    if not corpus:
        raise TokenizerError("corpus is empty")
    alphabet = sorted(set("".join(corpus)))
    if target_vocab < len(alphabet) + N_SPECIALS:
        raise TokenizerError(
            f"target_vocab {target_vocab} is smaller than alphabet "
            f"({len(alphabet)}) + reserved ({N_SPECIALS})"
        )
    tokens: list[str] = list(SPECIAL_TOKENS) + alphabet

    # Duplicate strings share one token list, weighted by their count.
    word_counts = Counter(corpus)
    words: list[list[str]] = [list(w) for w in word_counts]
    weights: list[int] = [word_counts[w] for w in word_counts]

    pair_counts: Counter = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, word in enumerate(words):
        for pair in zip(word, word[1:]):
            pair_counts[pair] += weights[wi]
            pair_words.setdefault(pair, set()).add(wi)

    merges: list[tuple[str, str]] = []
    token_set = set(tokens)
    while len(tokens) < target_vocab and pair_counts:
        best, best_count = min(
            pair_counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        if best_count < min_frequency:
            break
        merges.append(best)
        merged_token = best[0] + best[1]
        # Distinct merges can spell the same string (e.g. A+BC vs AB+C); the
        # rule still applies but the vocabulary entry already exists.
        if merged_token not in token_set:
            tokens.append(merged_token)
            token_set.add(merged_token)
        for wi in sorted(pair_words.get(best, ())):
            word = words[wi]
            w = weights[wi]
            for pair in zip(word, word[1:]):
                pair_counts[pair] -= w
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                group = pair_words.get(pair)
                if group is not None:
                    group.discard(wi)
                    if not group:
                        del pair_words[pair]
            word = _apply_merge(word, best[0], best[1])
            words[wi] = word
            for pair in zip(word, word[1:]):
                pair_counts[pair] += w
                pair_words.setdefault(pair, set()).add(wi)
    return Tokenizer(Vocabulary(tuple(tokens)), tuple(merges), max_len=max_len)
