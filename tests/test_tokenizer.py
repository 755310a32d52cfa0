import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontograft.tokenizer import (
    BOS_ID,
    EOS_ID,
    MASK_ID,
    N_SPECIALS,
    PAD_ID,
    SPECIAL_TOKENS,
    SequenceTooLongError,
    TokenSequence,
    Tokenizer,
    TokenizerError,
    UNK_ID,
    Vocabulary,
    train_bpe,
)

import bpe_oracle


def random_smiles_corpus(rng, n, alphabet="CNOSPFIBrcl1()=", max_len=40):
    corpus = []
    for _ in range(n):
        length = int(rng.integers(3, max_len))
        corpus.append("".join(rng.choice(list(alphabet), size=length)))
    return corpus


class TestTrain:
    def test_single_pair_corpus(self):
        # hand count: the only pair is (C, C) with frequency 1 in "CC";
        # min_frequency=1 lets it merge
        tok = train_bpe(["CC"], target_vocab=20, min_frequency=1)
        assert set(tok.vocab.tokens[N_SPECIALS:]) >= {"C"}
        assert tok.merges[0] == ("C", "C")
        assert "CC" in tok.vocab

    def test_min_frequency_blocks_singleton_pairs(self):
        tok = train_bpe(["CC"], target_vocab=20)  # default min_frequency=2
        assert tok.merges == ()

    def test_no_room_for_merges(self):
        corpus = ["CCO", "OCC"]
        alphabet_size = len(set("".join(corpus)))
        tok = train_bpe(corpus, target_vocab=alphabet_size + N_SPECIALS)
        assert tok.merges == ()
        assert len(tok.vocab) == alphabet_size + N_SPECIALS

    def test_target_too_small(self):
        with pytest.raises(TokenizerError):
            train_bpe(["CNOPS"], target_vocab=7)

    def test_max_len_leaves_room_for_a_token(self):
        # BOS and EOS take two positions
        with pytest.raises(TokenizerError, match="max_len must be >= 3"):
            train_bpe(["CC"], target_vocab=20, max_len=2)
        assert train_bpe(["CC"], target_vocab=20, max_len=3).encode("C").ids == (
            BOS_ID, N_SPECIALS, EOS_ID)

    def test_empty_corpus(self):
        with pytest.raises(TokenizerError):
            train_bpe([], target_vocab=50)

    def test_most_frequent_pair_merged_first(self):
        # (C,C) occurs 6 times, (C,O) 3 times
        tok = train_bpe(["CCO", "CCO", "CCO", "CCCC"], target_vocab=11, min_frequency=1)
        assert tok.merges[0] == ("C", "C")

    def test_frequency_tie_breaks_lexicographically(self):
        # pairs (A,B) and (B,A) both occur twice in "ABAB"; (A,B) sorts first
        tok = train_bpe(["ABAB", "ABAB"], target_vocab=8, min_frequency=2)
        assert tok.merges[0] == ("A", "B")

    def test_vocab_reaches_paper_scale_target(self):
        rng = np.random.default_rng(0)
        corpus = random_smiles_corpus(rng, 800, max_len=60)
        tok = train_bpe(corpus, target_vocab=300, min_frequency=2)
        assert len(tok.vocab) == 300


class TestEncode:
    def char_tokenizer(self, alphabet="CO"):
        return train_bpe(["".join(alphabet)], target_vocab=len(alphabet) + N_SPECIALS)

    def test_character_split_without_merges(self):
        tok = self.char_tokenizer("CO")
        seq = tok.encode("CCO")
        tokens = [tok.vocab.token_of(i) for i in seq.ids]
        assert tokens == ["<bos>", "C", "C", "O", "<eos>"]

    def test_single_merge_applied(self):
        tok = train_bpe(["CCO", "CCN"], target_vocab=N_SPECIALS + 5, min_frequency=2)
        assert ("C", "C") in tok.merges
        tokens = [tok.vocab.token_of(i) for i in tok.encode("CCO").ids]
        assert tokens == ["<bos>", "CC", "O", "<eos>"]

    def test_unknown_character_maps_to_unk(self):
        tok = self.char_tokenizer("CO")
        seq = tok.encode("CXO")
        assert seq.ids[2] == UNK_ID

    def test_too_long_raises(self):
        tok = Tokenizer(self.char_tokenizer("CO").vocab, (), max_len=6)
        with pytest.raises(SequenceTooLongError):
            tok.encode("CCCCCCCC")

    def test_truncation_flag(self):
        tok = Tokenizer(self.char_tokenizer("CO").vocab, (), max_len=6)
        seq = tok.encode("CCCCCCCC", truncate=True)
        assert seq.truncated
        assert len(seq) == 6
        assert seq.ids[0] == BOS_ID and seq.ids[-1] == EOS_ID

    def test_empty_string(self):
        tok = self.char_tokenizer("CO")
        with pytest.raises(TokenizerError):
            tok.encode("")


class TestDecode:
    def test_padding_and_specials_stripped(self):
        tok = train_bpe(["CCO", "CCN"], target_vocab=N_SPECIALS + 5, min_frequency=2)
        ids = (BOS_ID, tok.vocab.id_of("CC"), tok.vocab.id_of("O"), EOS_ID, PAD_ID, PAD_ID)
        text, lossy = tok.decode(TokenSequence(ids))
        assert text == "CCO"
        assert not lossy

    def test_unk_is_lossy(self):
        tok = train_bpe(["CO"], target_vocab=N_SPECIALS + 2)
        text, lossy = tok.decode(TokenSequence((BOS_ID, UNK_ID, EOS_ID)))
        assert lossy
        assert "<unk>" in text

    def test_round_trip_over_training_alphabet(self):
        rng = np.random.default_rng(1)
        corpus = random_smiles_corpus(rng, 100)
        tok = train_bpe(corpus, target_vocab=120, max_len=128)
        for s in corpus:
            text, lossy = tok.decode(tok.encode(s))
            assert text == s and not lossy


class TestProperties:
    def test_deterministic_retraining_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        corpus = random_smiles_corpus(rng, 200)
        train_bpe(corpus, target_vocab=90).save(tmp_path / "a.txt")
        train_bpe(corpus, target_vocab=90).save(tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_monotone_compression(self):
        rng = np.random.default_rng(3)
        corpus = random_smiles_corpus(rng, 150)
        trained = train_bpe(corpus, target_vocab=100, max_len=128)
        baseline = Tokenizer(trained.vocab, (), max_len=128)
        for s in corpus:
            assert len(trained.encode(s)) <= len(baseline.encode(s))

    def test_ids_contiguous(self):
        rng = np.random.default_rng(4)
        tok = train_bpe(random_smiles_corpus(rng, 50), target_vocab=60)
        assert list(range(len(tok.vocab))) == [
            tok.vocab.id_of(t) for t in tok.vocab.tokens
        ]

    def test_reserved_ids(self):
        tok = train_bpe(["CC"], target_vocab=20)
        assert tok.vocab.tokens[:5] == ("<pad>", "<unk>", "<bos>", "<eos>", "<mask>")
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID, MASK_ID) == (0, 1, 2, 3, 4)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        tok = train_bpe(random_smiles_corpus(rng, 80), target_vocab=70, max_len=200)
        path = tmp_path / "tok.txt"
        tok.save(path)
        loaded = Tokenizer.load(path)
        assert loaded.vocab.tokens == tok.vocab.tokens
        assert loaded.merges == tok.merges
        assert loaded.max_len == tok.max_len

    def test_every_cut_is_an_error(self, tmp_path):
        """A v2 file cut at any byte offset, including every line boundary
        inside [merges], fails to load instead of giving a shorter file."""
        tok = train_bpe(random_smiles_corpus(np.random.default_rng(1), 30),
                        target_vocab=30, max_len=64)
        full = tmp_path / "tok.txt"
        tok.save(full)
        blob = full.read_bytes()
        assert len(tok.merges) >= 5  # several line boundaries inside [merges]
        cut = tmp_path / "cut.txt"
        for offset in range(len(blob)):
            cut.write_bytes(blob[:offset])
            with pytest.raises(TokenizerError):
                Tokenizer.load(cut)

    def test_v1_file_loads(self, tmp_path):
        """Format v1, which has no merge count, as earlier versions wrote it."""
        tok = train_bpe(random_smiles_corpus(np.random.default_rng(2), 40),
                        target_vocab=40, max_len=80)
        lines = ["ontograft-tokenizer v1", "max_len\t80", "[vocab]"]
        lines += [f"{i}\t{token}" for i, token in enumerate(tok.vocab.tokens)]
        lines.append("[merges]")
        lines += [f"{left}\t{right}" for left, right in tok.merges]
        path = tmp_path / "tok_v1.txt"
        path.write_text("\n".join(lines) + "\n")
        assert Tokenizer.load(path) == tok

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "tok.txt"
        path.write_text("ontograft-tokenizer v999\nmax_len\t10\n[vocab]\n[merges]\n")
        with pytest.raises(TokenizerError):
            Tokenizer.load(path)


def saved_bytes(tok) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tok.txt")
        tok.save(path)
        with open(path, "rb") as fh:
            return fh.read()


def trained_like_oracle(corpus, target_vocab, min_frequency):
    """``train_bpe``'s tokenizer, after checking that the loop it replaced
    learns the same merges and vocabulary and saves the same bytes."""
    tok = train_bpe(corpus, target_vocab, max_len=64, min_frequency=min_frequency)
    ref = bpe_oracle.train_bpe(corpus, target_vocab, max_len=64, min_frequency=min_frequency)
    assert tok.merges == ref.merges
    assert tok.vocab.tokens == ref.vocab.tokens
    assert saved_bytes(tok) == saved_bytes(ref)
    return tok


@st.composite
def training_runs(draw):
    """(corpus, target_vocab, min_frequency): words of 1-4 letters, some
    repeated, and a target from no merges to more than the pairs allow."""
    letters = draw(st.sampled_from(["C", "AB", "ABC", "ABCD"]))
    words = draw(st.lists(st.text(letters, min_size=1, max_size=12), min_size=1, max_size=10))
    repeats = draw(st.lists(st.sampled_from(words), max_size=6))
    corpus = draw(st.permutations(words + repeats))
    base = len(set("".join(corpus))) + N_SPECIALS
    return corpus, base + draw(st.integers(0, 40)), draw(st.integers(1, 3))


class TestTrainAgainstOracle:
    """Heap-driven training against the full-scan loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(run=training_runs())
    @example(run=(["<mask>", "<mask>"], 30, 2))
    @example(run=(["CCCCC"], 30, 1))
    @example(run=(["ABAB", "ABAB", "CABCAB", "ABC", "BCA"], 30, 1))
    @example(run=(["CCCC", "CC", "CCC", "CCCC"], 30, 2))
    def test_same_merges_vocabulary_and_file(self, run):
        trained_like_oracle(*run)

    def test_merge_that_spells_an_existing_token(self):
        # the last of five merges spells "<mask>": the vocabulary keeps one
        # entry for it, the reserved one
        tok = trained_like_oracle(["<mask>", "<mask>"], 30, 2)
        assert len(tok.merges) == 5
        assert "".join(tok.merges[-1]) == "<mask>"
        assert len(tok.vocab) == N_SPECIALS + len("<mask>") + 4
        assert tok.encode("<mask>").ids == (BOS_ID, MASK_ID, EOS_ID)

    def test_run_of_one_character(self):
        # (C, C) merges CCCCC to CC CC C: four pairs counted off, one (CC, CC)
        # and one (CC, C) counted on; the tie goes to (CC, C), "C" < "CC"
        tok = trained_like_oracle(["CCCCC"], 30, 1)
        assert tok.merges == (("C", "C"), ("CC", "C"), ("CC", "CCC"))

    def test_duplicate_words_count_by_weight(self):
        # (C, O) three times, (N, C) once
        tok = trained_like_oracle(["CO", "NC", "CO", "CO"], 30, 2)
        assert tok.merges == (("C", "O"),)

    def test_min_frequency_cut_off(self):
        corpus = ["AB", "AB", "CD"]
        assert trained_like_oracle(corpus, 30, 2).merges == (("A", "B"),)
        assert trained_like_oracle(corpus, 30, 1).merges == (("A", "B"), ("C", "D"))

    def test_count_tie_breaks_on_left_then_right(self):
        tok = trained_like_oracle(["BA", "AC", "AB"] * 2, 30, 2)
        assert tok.merges == (("A", "B"), ("A", "C"), ("B", "A"))

    def test_stops_when_the_vocabulary_is_full(self):
        tok = trained_like_oracle(["BA", "AC", "AB"] * 2, N_SPECIALS + 3 + 1, 1)
        assert tok.merges == (("A", "B"),)
        assert len(tok.vocab) == N_SPECIALS + 3 + 1

    def test_stops_when_no_pair_is_left(self):
        tok = trained_like_oracle(["AB"], 100, 1)
        assert tok.merges == (("A", "B"),)
        assert len(tok.vocab) == N_SPECIALS + 3


def assert_encodes_like_oracle(tok, smiles, truncate):
    try:
        ref = bpe_oracle.encode(tok, smiles, truncate=truncate)
    except SequenceTooLongError as exc:
        with pytest.raises(SequenceTooLongError) as caught:
            tok.encode(smiles, truncate=truncate)
        assert (caught.value.length, caught.value.max_len) == (exc.length, exc.max_len)
        return
    got = tok.encode(smiles, truncate=truncate)
    assert (got.ids, got.truncated) == (ref.ids, ref.truncated)


@st.composite
def hand_built_tokenizers(draw):
    """Merges drawn freely from the vocabulary built so far, so later merges
    re-spell earlier tokens (A+BC after AB+C) and pairs repeat."""
    tokens = ["A", "B", "C"]
    merges = []
    for _ in range(draw(st.integers(0, 12))):
        pair = (draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens)))
        merges.append(pair)
        if pair[0] + pair[1] not in tokens:
            tokens.append(pair[0] + pair[1])
    vocab = Vocabulary(SPECIAL_TOKENS + tuple(tokens))
    return Tokenizer(vocab, tuple(merges), max_len=draw(st.integers(3, 24)))


class TestEncodeAgainstOracle:
    """Rank-driven ``encode`` against applying every merge in order."""

    @settings(max_examples=200, deadline=None)
    @given(run=training_runs(), strings=st.lists(st.text("ABCDX", min_size=1, max_size=30),
                                                 min_size=1, max_size=5),
           truncate=st.booleans())
    def test_trained_tokenizers(self, run, strings, truncate):
        corpus, target_vocab, min_frequency = run
        tok = train_bpe(corpus, target_vocab, max_len=16, min_frequency=min_frequency)
        for smiles in strings + corpus:
            assert_encodes_like_oracle(tok, smiles, truncate)

    @settings(max_examples=300, deadline=None)
    @given(tok=hand_built_tokenizers(),
           strings=st.lists(st.text("ABC", min_size=1, max_size=20), min_size=1, max_size=5),
           truncate=st.booleans())
    def test_merges_that_respell_tokens(self, tok, strings, truncate):
        for smiles in strings:
            assert_encodes_like_oracle(tok, smiles, truncate)

    def test_later_merge_does_not_reopen_an_earlier_one(self):
        # (ABC, D) ranks before the merge that first makes ABC, so in training
        # order it never applies to ABCD; a merge by rank alone would
        tokens = ("A", "B", "C", "D", "BC", "ABCD", "ABC", "AB")
        merges = (("B", "C"), ("ABC", "D"), ("A", "BC"), ("A", "B"), ("AB", "C"))
        tok = Tokenizer(Vocabulary(SPECIAL_TOKENS + tokens), merges)
        assert tok.token_strings(tok.encode("ABCD"))[1:-1] == ["ABC", "D"]
        for smiles in ("ABCD", "ABCDABCD", "AB", "ABDC", "ABCABC"):
            assert_encodes_like_oracle(tok, smiles, False)

    def test_pair_merged_twice(self):
        # (ABC, D) is merged again after A+BC re-spells ABC, at its second
        # rank: after (D, E), which takes the D first when E follows
        tokens = ("A", "B", "C", "D", "E", "BC", "ABCD", "ABC", "DE")
        merges = (("B", "C"), ("ABC", "D"), ("A", "BC"), ("D", "E"), ("ABC", "D"))
        tok = Tokenizer(Vocabulary(SPECIAL_TOKENS + tokens), merges)
        assert tok.token_strings(tok.encode("ABCD"))[1:-1] == ["ABCD"]
        assert tok.token_strings(tok.encode("ABCDE"))[1:-1] == ["ABC", "DE"]
        for smiles in ("ABCDABCDBCD", "ABCDEABCD", "EABCDE"):
            assert_encodes_like_oracle(tok, smiles, False)
