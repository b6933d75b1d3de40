"""Tests for the Store / Mailbox synchronization primitives."""

from repro.simkernel.resources import Mailbox, Store


# -- Store ---------------------------------------------------------------------

def test_store_put_then_get(sim):
    store = Store(sim)
    store.put("x")
    got = store.get()
    sim.run()
    assert got.value == "x"
    assert len(store) == 0


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    got = store.get()

    def producer():
        yield sim.timeout(5.0)
        store.put(99)

    sim.process(producer())
    sim.run()
    assert got.processed and got.value == 99


def test_store_fifo_order(sim):
    store = Store(sim)
    for i in range(3):
        store.put(i)
    values = []
    for _ in range(3):
        event = store.get()
        event.add_callback(lambda e: values.append(e.value))
    sim.run()
    assert values == [0, 1, 2]


# -- Mailbox ---------------------------------------------------------------------

def test_mailbox_predicate_matching(sim):
    box = Mailbox(sim)
    box.put({"tag": 1, "body": "one"})
    box.put({"tag": 2, "body": "two"})
    got = box.get(lambda m: m["tag"] == 2)
    sim.run()
    assert got.value["body"] == "two"
    assert len(box) == 1  # the unmatched message stays queued


def test_mailbox_unmatched_messages_wait(sim):
    box = Mailbox(sim)
    got = box.get(lambda m: m == "wanted")
    box.put("other")
    sim.run()
    assert not got.triggered
    box.put("wanted")
    sim.run()
    assert got.value == "wanted"


def test_mailbox_getter_fifo_among_matches(sim):
    box = Mailbox(sim)
    first = box.get()
    second = box.get()
    box.put("a")
    box.put("b")
    sim.run()
    assert first.value == "a" and second.value == "b"


def test_mailbox_peek_count(sim):
    box = Mailbox(sim)
    for tag in (1, 2, 2, 3):
        box.put({"tag": tag})
    assert box.peek_count() == 4
    assert box.peek_count(lambda m: m["tag"] == 2) == 2


def test_mailbox_selective_getters_dont_steal(sim):
    """A getter for tag A must not consume a tag-B message even if posted
    first -- the MPI unexpected-message-queue behaviour."""
    box = Mailbox(sim)
    got_a = box.get(lambda m: m["tag"] == "a")
    got_b = box.get(lambda m: m["tag"] == "b")
    box.put({"tag": "b"})
    sim.run()
    assert got_b.processed and got_b.value["tag"] == "b"
    assert not got_a.triggered
