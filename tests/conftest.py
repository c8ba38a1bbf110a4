import hypothesis
import numpy as np
import pytest

# numeric code: example runtimes vary too much for the default deadline
hypothesis.settings.register_profile("numeric", deadline=None, max_examples=50)
hypothesis.settings.load_profile("numeric")


class ContourTraffic:
    """specfun's contour calls and its loggamma calls, recorded in call order.

    ``loggamma`` holds the ndim of each argument (1 for a table fill, 0 for a
    scalar term), ``contours`` the (a1, b3, z) of each contour evaluation.
    """

    def __init__(self, monkeypatch):
        from irislab import specfun as sf
        special = sf.special_ufuncs()
        self.loggamma, self.contours = [], []
        contour, record = sf._meijer_contour, self.loggamma

        class _Ufuncs:
            def __getattr__(self, name):
                return getattr(special, name)

            def loggamma(self, x):
                record.append(np.ndim(x))
                return special.loggamma(x)

        def spy(a1, b3, z):
            self.contours.append((a1, b3, z))
            return contour(a1, b3, z)
        ufuncs = _Ufuncs()
        monkeypatch.setattr(sf, "special_ufuncs", lambda: ufuncs)
        monkeypatch.setattr(sf, "_meijer_contour", spy)

    def clear(self):
        self.loggamma.clear()
        self.contours.clear()

    @property
    def fills(self):
        return self.loggamma.count(1)

    @property
    def switches(self):
        """Contour calls whose b3 is not the last one seen on their line (a1),
        counting the first call on a line; the lines must outlive the run."""
        last, n = {}, 0
        for a1, b3, _ in self.contours:
            n += last.get(a1) != b3
            last[a1] = b3
        return n


@pytest.fixture
def contour_traffic(monkeypatch):
    return ContourTraffic(monkeypatch)
