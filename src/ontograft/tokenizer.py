"""Byte-pair encoding over SMILES strings.

The base alphabet is the set of characters seen in the training corpus (SMILES
is ASCII in practice), so multi-character atoms like "Br" and "Cl" are learned
as merges.  Each SMILES string is one BPE word; there is no whitespace
pre-splitting.
"""

from __future__ import annotations

import bisect
import heapq
from collections import Counter, defaultdict
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
    # pair -> its first rank (index in merges).  A pair recurs in merges only
    # if a later merge re-spells one of its tokens (ABC as A+BC after AB+C);
    # _repeats maps such a pair to all its ranks, ascending.
    _ranks: dict = field(init=False, repr=False, compare=False)
    _repeats: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ranks: dict[tuple[str, str], int] = {}
        repeats: dict[tuple[str, str], list[int]] = {}
        for rank, pair in enumerate(self.merges):
            if pair in ranks:
                repeats.setdefault(pair, [ranks[pair]]).append(rank)
            else:
                ranks[pair] = rank
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_repeats", repeats)

    def encode(self, smiles: str, truncate: bool = False) -> TokenSequence:
        """Character-split, apply merges in training order, add BOS/EOS.

        Characters outside the training alphabet map to UNK.  Sequences longer
        than max_len raise by default; with ``truncate=True`` they are cut to
        fit and flagged.

        A merge whose pair is not adjacent changes nothing, so instead of
        trying every merge in turn, each step applies the lowest-ranked merge
        at or after the last one applied whose pair is adjacent: the same
        merges in the same order.  ``pending[i]`` holds that rank for the
        pair at ``i``, and a merge recomputes it only beside its sites.
        """
        if not smiles:
            raise TokenizerError("cannot encode an empty string")
        index = self.vocab._index
        parts = [c if c in index else UNK for c in smiles]
        merges, rank_of = self.merges, self._ranks.get
        done = len(merges)  # the rank of a pair no merge left applies to
        pending = [rank_of(pair, done) for pair in zip(parts, parts[1:])]
        while pending:
            best = min(pending)
            if best == done:
                break
            # Non-overlapping sites, left to right; then merge right to left so
            # that the indices of the sites still to merge hold.
            sites = []
            i = -1
            for _ in range(pending.count(best)):
                i = pending.index(best, i + 1)
                if not sites or i > sites[-1] + 1:
                    sites.append(i)
            merged = merges[best][0] + merges[best][1]
            start = best + 1
            for i in reversed(sites):
                parts[i:i + 2] = (merged,)
                del pending[i]
                if i > 0:
                    pair = (parts[i - 1], merged)
                    rank = rank_of(pair, done)
                    pending[i - 1] = rank if rank >= start else self._rank_after(pair, start)
                if i < len(pending):
                    pair = (merged, parts[i + 1])
                    rank = rank_of(pair, done)
                    pending[i] = rank if rank >= start else self._rank_after(pair, start)
        truncated = False
        if len(parts) + 2 > self.max_len:
            if not truncate:
                raise SequenceTooLongError(len(parts) + 2, self.max_len)
            parts = parts[: self.max_len - 2]
            truncated = True
        return TokenSequence((BOS_ID, *[index[p] for p in parts], EOS_ID), truncated=truncated)

    def _rank_after(self, pair, start: int) -> int:
        """The first rank at or after ``start`` of a merge of ``pair``."""
        ranks = self._repeats.get(pair, ())
        i = bisect.bisect_left(ranks, start)
        return ranks[i] if i < len(ranks) else len(self.merges)

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

    The best pair comes off a heap keyed ``(-count, left, right)``, the
    tie-break order itself.  Entries go stale lazily: one is live while its
    count equals the pair's current count, and every count change pushes a
    fresh entry, so the first live entry is the pair ``min`` over all pairs
    would pick.  A merge rewrites the words that hold the pair,
    non-overlapping left to right as ``encode`` does, and recounts only the
    pairs touching a merge site (old indices ``i-1, i, i+1`` of a site at
    ``i``; new indices ``j-1, j`` of its merged token at ``j``): every other
    pair keeps its tokens and their adjacency.  So the merges and the
    vocabulary equal those of recounting every pair after each merge, at a
    cost that follows the merge sites, not the corpus.
    """
    if not corpus:
        raise TokenizerError("corpus is empty")
    if max_len < 3:
        raise TokenizerError(f"max_len must be >= 3 (BOS and EOS take two), got {max_len}")
    alphabet = sorted(set("".join(corpus)))
    if target_vocab < len(alphabet) + N_SPECIALS:
        raise TokenizerError(
            f"target_vocab {target_vocab} is smaller than alphabet "
            f"({len(alphabet)}) + reserved ({N_SPECIALS})"
        )
    tokens: list[str] = list(SPECIAL_TOKENS) + alphabet
    # Words are lists of token ids, so a merge that spells an existing token
    # (e.g. A+BC after AB+C) produces that token's id, and a pair (a, b) is
    # the one int a * target_vocab + b: every id is below target_vocab.
    token_ids = {token: i for i, token in enumerate(tokens)}
    width = target_vocab

    # Duplicate strings share one word, weighted by their count.
    word_counts = Counter(corpus)
    words = [[token_ids[c] for c in w] for w in word_counts]
    weights = list(word_counts.values())

    # pair_counts holds only pairs that occur.  pair_words may list a word
    # that no longer holds the pair; such a word has no merge site.
    pair_counts: dict[int, int] = defaultdict(int)
    pair_words: dict[int, set[int]] = defaultdict(set)
    for wi, word in enumerate(words):
        w = weights[wi]
        for a, b in zip(word, word[1:]):
            pair = a * width + b
            pair_counts[pair] += w
            pair_words[pair].add(wi)
    heap = [(-count, tokens[pair // width], tokens[pair % width], pair)
            for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while len(tokens) < target_vocab:
        while heap and pair_counts.get(heap[0][3]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < min_frequency:
            break
        _, left_token, right_token, best = heapq.heappop(heap)
        merges.append((left_token, right_token))
        left, right = divmod(best, width)
        # A merge can spell a token that exists (a reserved token, or another
        # merge's spelling, as A+BC after AB+C): the rule still applies but
        # the vocabulary entry already exists.
        merged_token = left_token + right_token
        merged = token_ids.get(merged_token)
        if merged is None:
            merged = token_ids[merged_token] = len(tokens)
            tokens.append(merged_token)
        deltas: dict[int, int] = defaultdict(int)
        # merged is longer than left and right, so no new pair is the best
        # pair: every occurrence of it is counted off below.
        for wi in pair_words.pop(best):
            word = words[wi]
            n = len(word)
            sites = []
            i = -1
            for _ in range(word.count(left)):
                i = word.index(left, i + 1)
                if i + 1 < n and word[i + 1] == right and (not sites or i > sites[-1] + 1):
                    sites.append(i)
            if not sites:
                continue
            w = weights[wi]
            # The pairs touching each site change.  A pair between two sites
            # (i, i + 2) is counted off once, as the right neighbour of the
            # first; likewise a pair between two merged tokens is counted on
            # once.  The k-th site's merged token sits at i - k.
            last = -2
            for i in sites:
                if i > 0 and last != i - 2:
                    deltas[word[i - 1] * width + left] -= w
                if i + 2 < n:
                    deltas[right * width + word[i + 2]] -= w
                last = i
            deltas[best] -= w * len(sites)
            for i in reversed(sites):
                word[i:i + 2] = (merged,)
            m = n - len(sites)
            last = -2
            for k, i in enumerate(sites):
                j = i - k
                if j > 0 and last != j - 1:
                    pair = word[j - 1] * width + merged
                    deltas[pair] += w
                    pair_words[pair].add(wi)
                if j + 1 < m:
                    pair = merged * width + word[j + 1]
                    deltas[pair] += w
                    pair_words[pair].add(wi)
                last = j
        for pair, delta in deltas.items():
            if not delta:
                continue
            count = pair_counts[pair] + delta
            if count > 0:
                pair_counts[pair] = count
                heapq.heappush(heap, (-count, tokens[pair // width], tokens[pair % width], pair))
            else:
                del pair_counts[pair]
    return Tokenizer(Vocabulary(tuple(tokens)), tuple(merges), max_len=max_len)
