"""Test data shared by several test modules: the desk geometry, channels
without an eavesdropper, and random Hermitian matrices."""

import numpy as np

from irs_swipt.channel import ChannelSet, generate_scenario

# a desk-sized layout (distances in meters) where every link is strong
DESK = dict(d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
            d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)


def no_eve_channels(cfg):
    """The scenario of cfg with the eavesdropper's channels set to zero."""
    ch = generate_scenario(cfg)
    return ChannelSet(G=ch.G, h_ab=ch.h_ab, h_ah=ch.h_ah,
                      h_ae=np.zeros(cfg.M), h_ib=ch.h_ib, h_ih=ch.h_ih,
                      h_ie=np.zeros(cfg.N))


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)
