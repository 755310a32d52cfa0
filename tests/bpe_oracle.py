"""BPE as it ran before heap-driven training: ``train_bpe`` takes ``min``
over every live pair for each merge and recounts every pair of each word
that holds the merged pair, and ``encode`` applies every merge in training
order.  Tests compare ``ontograft.tokenizer`` against it: the same
merges, vocabulary, saved file, ids and truncation flag.
"""

from collections import Counter

from ontograft.tokenizer import (
    BOS_ID,
    EOS_ID,
    N_SPECIALS,
    SPECIAL_TOKENS,
    UNK,
    SequenceTooLongError,
    Tokenizer,
    TokenizerError,
    TokenSequence,
    Vocabulary,
)


def encode(tokenizer, smiles, truncate=False):
    """``Tokenizer.encode`` as it was: every merge, in training order."""
    if not smiles:
        raise TokenizerError("cannot encode an empty string")
    parts = [c if c in tokenizer.vocab else UNK for c in smiles]
    for left, right in tokenizer.merges:
        parts = apply_merge(parts, left, right)
    truncated = False
    if len(parts) + 2 > tokenizer.max_len:
        if not truncate:
            raise SequenceTooLongError(len(parts) + 2, tokenizer.max_len)
        parts = parts[: tokenizer.max_len - 2]
        truncated = True
    ids = (BOS_ID,) + tuple(tokenizer.vocab.id_of(p) for p in parts) + (EOS_ID,)
    return TokenSequence(ids, truncated=truncated)


def apply_merge(parts: list[str], left: str, right: str) -> list[str]:
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
            word = apply_merge(word, best[0], best[1])
            words[wi] = word
            for pair in zip(word, word[1:]):
                pair_counts[pair] += w
                pair_words.setdefault(pair, set()).add(wi)
    return Tokenizer(Vocabulary(tuple(tokens)), tuple(merges), max_len=max_len)
