"""Tests for the functional memory image."""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.image import WORD_BYTES, MemoryImage


def test_write_then_read_round_trip():
    image = MemoryImage()
    image.write(0x1000, 99)
    assert image.read(0x1000) == 99


def test_subword_addresses_alias_to_the_word():
    image = MemoryImage()
    image.write(0x1000, 7)
    assert image.read(0x1004) == 7  # same 8-byte word
    image.write(0x1001, 8)
    assert image.read(0x1000) == 8


def test_uninitialised_reads_are_deterministic_garbage():
    image = MemoryImage()
    first = image.read(0x5000)
    second = image.read(0x5000)
    assert first == second
    assert first != 0
    # Different addresses give different garbage (overwhelmingly).
    others = {image.read(0x5000 + 8 * i) for i in range(16)}
    assert len(others) > 8


def test_uninitialised_values_never_look_like_pointers():
    image = MemoryImage()
    image.note_heap(0, 1 << 40)  # absurdly wide heap
    for i in range(64):
        value = image.read(0x9000 + 8 * i)
        assert not image.looks_like_pointer(value)  # odd by construction


def test_read_line_returns_all_words():
    image = MemoryImage()
    for i in range(4):
        image.write(0x2000 + i * WORD_BYTES, i + 1)
    assert image.read_line(0x2000, 32) == (1, 2, 3, 4)


def test_read_line_mixes_written_and_garbage_words():
    image = MemoryImage()
    image.write(0x3000, 5)
    words = image.read_line(0x3000, 32)
    assert words[0] == 5
    assert all(w != 0 for w in words[1:])


def test_pointer_detection_requires_heap_range_and_alignment():
    image = MemoryImage()
    image.note_heap(0x1000, 0x2000)
    assert image.looks_like_pointer(0x1008)
    assert not image.looks_like_pointer(0x1009)   # unaligned
    assert not image.looks_like_pointer(0x3000)   # outside heap
    assert not image.looks_like_pointer(0)
    assert not image.looks_like_pointer(-8)


def test_note_heap_extends_range():
    image = MemoryImage()
    image.note_heap(0x1000, 0x2000)
    image.note_heap(0x8000, 0x9000)
    assert image.looks_like_pointer(0x1008)
    assert image.looks_like_pointer(0x8008)


def test_contains_and_len():
    image = MemoryImage()
    assert 0x1000 not in image
    image.write(0x1000, 1)
    assert 0x1000 in image
    assert 0x1004 in image  # same word
    assert len(image) == 1


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 20),
                  st.integers(min_value=0, max_value=1 << 62)),
        min_size=1, max_size=50,
    )
)
def test_last_write_wins(writes):
    """Property: reading a word returns its most recent write."""
    image = MemoryImage()
    last = {}
    for addr, value in writes:
        image.write(addr, value)
        last[addr & ~7] = value
    for word_addr, value in last.items():
        assert image.read(word_addr) == value


def test_restore_gives_back_a_base_thawed_since_the_snapshot():
    """A snapshot taken while the store-loaded base is still pending must
    bring that base back, not just the overlay, after a read thawed it."""
    image = MemoryImage()
    image._pending = (array("q", [0, 8, 16]), array("q", [10, 11, 12]))
    image.write(8, 99)                     # an overlay store
    saved = image.snapshot()
    assert image.read(0) == 10             # thaws the base
    image.write(16, 7)
    image.restore(saved)
    assert len(image) == 3
    assert [image.read(a) for a in (0, 8, 16)] == [10, 99, 12]
    # A snapshot taken after the thaw keeps the thawed words, and the
    # base is not applied a second time over later overlay stores.
    saved = image.snapshot()
    image.write(0, 5)
    image.restore(saved)
    image.write(8, 3)
    assert [image.read(a) for a in (0, 8, 16)] == [10, 3, 12]
