try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("scrc", derandomize=True, max_examples=150, deadline=None,
                              database=None)
    settings.load_profile("scrc")
