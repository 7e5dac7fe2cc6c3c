"""Unit tests for the shared discrete-event queue."""

from repro.common import EventQueue


def _record(fired, tag=None):
    """A push() callback appending ``(tag, due)`` (or ``due``) to ``fired``."""

    def callback(arg, due):
        fired.append(due if tag is None else (tag, due))

    return callback


class TestEventQueue:
    def test_empty_queue_is_inert(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert queue.next_cycle() is None
        assert queue.service(100) is False

    def test_fires_at_or_before_cycle(self):
        queue = EventQueue()
        fired = []
        queue.push(5, _record(fired, "a"), None)
        queue.push(10, _record(fired, "b"), None)
        assert queue.service(4) is False
        assert queue.service(5) is True
        assert fired == [("a", 5)]
        # An event whose cycle was skipped over still fires (late), and
        # its callback receives the cycle it was due at.
        assert queue.service(30) is True
        assert fired == [("a", 5), ("b", 10)]
        assert len(queue) == 0

    def test_same_cycle_fires_in_insertion_order(self):
        queue = EventQueue()
        fired = []
        for tag in ("first", "second", "third"):
            queue.push(7, lambda arg, due: fired.append(arg), tag)
        queue.service(7)
        assert fired == ["first", "second", "third"]

    def test_next_cycle_tracks_earliest(self):
        queue = EventQueue()
        queue.push(20, _record([]), None)
        queue.push(3, _record([]), None)
        assert queue.next_cycle() == 3
        queue.service(3)
        assert queue.next_cycle() == 20

    def test_callback_may_reschedule(self):
        queue = EventQueue()
        fired = []

        def chain(arg, now):
            fired.append(now)
            if now < 3:
                queue.push(now + 1, chain, arg)

        queue.push(1, chain, None)
        for cycle in range(5):
            queue.service(cycle)
        assert fired == [1, 2, 3]

    def test_service_is_idempotent(self):
        queue = EventQueue()
        fired = []
        queue.push(2, _record(fired), None)
        queue.service(2)
        queue.service(2)
        assert fired == [2]
