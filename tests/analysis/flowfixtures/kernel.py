"""The fixture's sinks: a toy event kernel and trace emitter."""


class Sim:
    def __init__(self):
        self.now = 0.0
        self._pending = []

    def _schedule(self, event, delay):
        """The fixture contracts name this as the schedule sink."""
        self._pending.append((self.now + delay, event))


def emit(kind, t):
    """The fixture contracts name this as the trace sink."""
    return (kind, t)
