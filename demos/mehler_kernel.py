"""Compare the summed Laguerre kernel against its closed form."""

import numpy as np

from zetawave import mehler_closed, mehler_series

ts = np.arange(0.1, 0.95, 0.1)
series = mehler_series(1.0, 2.0, ts)
closed = mehler_closed(1.0, 2.0, ts)
rel = np.abs(series.value - closed) / np.abs(closed)
for t, s_val, c_val, r in zip(ts, series.value, closed, rel):
    print(f"t = {t:.1f}: series = {s_val:.12f} closed = {c_val:.12f} "
          f"rel = {r:.2e} (terms used: {series.terms_used})")
print(f"worst relative gap: {rel.max():.2e}")
