from repro.observe import Event


def _feed(rec, fam, kind, **fields):
    """Hand ``rec`` one bus record, as a datapath seam would."""
    rec.on_event(Event(fam, kind, **fields))
