"""Coverage and spectral efficiency of mmWave wearable networks under
human-body blockage: closed-form expressions and a Monte Carlo simulator."""
