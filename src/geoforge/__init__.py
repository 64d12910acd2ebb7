"""Planar geometry structures with JSON, SVG and Ipe output.

The package builds classic figure-friendly structures over points,
segments and polygons: point and PR quadtrees, trapezoidal maps, onion
decompositions, beta-skeletons, floating bodies of convex polygons,
ear-clipping triangulations with uniform sampling, and Sierpinski
fractals.  Every structure has a canonical JSON dump and can be drawn to
SVG or Ipe, either from Python or through the geoforge CLI.
"""

import sys
import types

# Each public name's home module, and so __all__.  Importing the package
# loads none of them: the PEP 562 __getattr__ below loads a name's module
# on first use.
_HOMES = {
    "beta_skeleton": ("ProximityGraph", "beta_skeleton", "theta_of_beta"),
    "core": (
        "COORD_LIMIT", "EPS_AREA", "EPS_DIST", "BBox", "GeometryError", "Halfplane", "Point",
        "PointLocation", "Polygon", "Segment", "clip_halfplane", "convex_hull",
        "point_in_polygon", "polygon_area", "polygon_bbox", "polygon_is_convex",
    ),
    "floating_body": ("FloatingBodyResult", "cut_halfplane", "dupin_floating_body"),
    "fractals": ("FractalKind", "FractalOutput", "sierpinski_carpet", "sierpinski_triangle"),
    "onion": ("OnionDecomposition", "onion_decomposition"),
    "quadtree": (
        "MAX_DEPTH", "PointQuadtree", "PRQuadtree", "build_point_quadtree", "build_pr_quadtree",
        "parse_quadtree_array", "quadtree_to_array",
    ),
    "render": ("emit_ipe", "emit_svg"),
    "scene": ("Scene", "SceneError", "parse_scene", "serialize_scene"),
    "trapmap": (
        "Trapezoid", "TrapezoidalMap", "VerticalExtension", "Wall", "build_trapezoidal_map",
        "locate", "trapezoid_area",
    ),
    "triangulation": ("SampleRequest", "Triangulation", "sample_points", "triangulate"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    home = "%s.%s" % (__name__, _HOME[name])
    __import__(home)  # as an import statement does, so -X importtime reports it
    value = getattr(sys.modules[home], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's module type: a loaded submodule never displaces a public name.

    The import system binds each submodule it loads on the package, and
    `beta_skeleton` names both a submodule and its function; the package's
    `beta_skeleton` stays the function in every import order.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"
