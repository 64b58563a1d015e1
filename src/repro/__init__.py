"""repro — an open reproduction of *How to Operate a Meta-Telescope in
your Spare Time* (Wagner et al., IMC 2023).

The package has two halves:

* a **synthetic Internet simulator** substituting for the paper's
  proprietary vantage data (:mod:`repro.net`, :mod:`repro.geo`,
  :mod:`repro.bgp`, :mod:`repro.traffic`, :mod:`repro.vantage`,
  :mod:`repro.datasets`, :mod:`repro.world`);
* the **meta-telescope methodology** itself (:mod:`repro.core`) plus
  the analyses of the paper's evaluation (:mod:`repro.analysis`,
  :mod:`repro.reporting`).

Quickstart::

    from repro.world.scenarios import small_world, small_observatory
    from repro.core import MetaTelescope

    world = small_world()
    observatory = small_observatory()
    views = observatory.all_ixp_views(num_days=1)
    telescope = MetaTelescope.for_world(world)
    result = telescope.infer(views)
    print(result.num_prefixes(), "meta-telescope /24 prefixes")
"""

__version__ = "1.0.0"
