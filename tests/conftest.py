try:
    from hypothesis import settings
except ImportError:  # only the property-test modules need hypothesis
    pass
else:
    # one profile for every property test: no deadline, as exact arithmetic on
    # drawn sizes varies widely in time, and no example database in the checkout
    settings.register_profile("qshape", deadline=None, database=None)
    settings.load_profile("qshape")
