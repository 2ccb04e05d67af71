"""Render one lemniscate to a PPM image.

Green is the lemniscate inside the unit disc, red the part of the disc
it misses, yellow the centered disc of radius 1 - kappa sqrt(log n / n)
that sits inside the lemniscate with overwhelming probability, and light
green any lemniscate spill beyond the unit circle.  Convert with any
image tool, e.g. `magick lemniscate_n100.ppm lemniscate_n100.png`.
"""

from lemlab import (
    RootedPolynomial,
    derive_substream,
    mask_component_stats,
    rasterize,
    sample_disc_array,
    write_ppm,
)

for n in (100, 300):
    stream = derive_substream(11, n)
    poly = RootedPolynomial(sample_disc_array(stream, n))
    grid = rasterize(poly, 1024, bound=1.25)
    path = "lemniscate_n%d.ppm" % n
    write_ppm(grid, poly, kappa=2.0, path=path)
    print("n=%4d -> %s (%d pixel components in the window)"
          % (n, path, mask_component_stats(grid.inside_mask)[0]))
