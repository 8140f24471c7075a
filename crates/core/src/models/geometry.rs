//! Exact per-layer geometry of the architectures compared in Tables II/III.
//!
//! These are *counting-only* descriptions — no weights — used to reproduce
//! the paper's Params/OPs columns precisely. Trainable (scaled-down) models
//! live in [`super`]; the 224×224 geometries here are the full-size
//! ImageNet architectures.

use crate::metrics::{ConvShape, NetworkCost};

/// A counting-only architecture description: its convolutions plus the
/// classifier's fully-connected cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchGeometry {
    /// Architecture name.
    pub name: &'static str,
    /// Convolution layers in execution order.
    pub convs: Vec<ConvShape>,
    /// Fully-connected parameter count.
    pub fc_params: u64,
}

impl ArchGeometry {
    /// Total parameters (convs + FC).
    pub fn params(&self) -> u64 {
        NetworkCost::of_layers(&self.convs).params + self.fc_params
    }

    /// Total MACs for one inference (convs + FC; FC MACs equal its params).
    pub fn macs(&self) -> u64 {
        NetworkCost::of_layers(&self.convs).macs + self.fc_params
    }

    /// Total OPs (`2·MACs`).
    pub fn ops(&self) -> u64 {
        2 * self.macs()
    }
}

/// Plain-20 conv layers at `side × side` input with the paper's stem
/// width 16 (paper: 32×32). ResNet-20 has identical conv geometry
/// (option-A shortcuts are parameter-free), so this serves both.
pub fn plain20_layers(side: usize) -> Vec<ConvShape> {
    plain20_layers_width(side, 16)
}

/// Plain-20 / ResNet-20 conv layers with a configurable stem width.
pub fn plain20_layers_width(side: usize, width: usize) -> Vec<ConvShape> {
    let mut layers = vec![ConvShape::new("conv1", 3, width, 3, 1, side, side)];
    let mut c_in = width;
    let mut s = side;
    for stage in 0..3 {
        let c_out = width << stage;
        for block in 0..3 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            if stride == 2 {
                s /= 2;
            }
            layers.push(ConvShape::new(
                format!("conv{}{}1", stage + 2, block + 1),
                c_in,
                c_out,
                3,
                stride,
                s,
                s,
            ));
            layers.push(ConvShape::new(
                format!("conv{}{}2", stage + 2, block + 1),
                c_out,
                c_out,
                3,
                1,
                s,
                s,
            ));
            c_in = c_out;
        }
    }
    layers
}

/// ResNet-18 at 224×224 (He et al. 2016): 7×7/2 stem, 4 stages × 2 basic
/// blocks, 1×1 projection shortcuts on strided stages, 512→1000 classifier.
pub fn resnet18_layers() -> ArchGeometry {
    let mut convs = vec![ConvShape::new("conv1", 3, 64, 7, 2, 112, 112)];
    // After the 3×3/2 max pool: 56×56.
    let widths = [64usize, 128, 256, 512];
    let sides = [56usize, 28, 14, 7];
    let mut c_in = 64;
    for (stage, (&w, &s)) in widths.iter().zip(sides.iter()).enumerate() {
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            convs.push(ConvShape::new(
                format!("conv{}_{}a", stage + 2, block + 1),
                c_in,
                w,
                3,
                stride,
                s,
                s,
            ));
            convs.push(ConvShape::new(
                format!("conv{}_{}b", stage + 2, block + 1),
                w,
                w,
                3,
                1,
                s,
                s,
            ));
            if stride == 2 {
                convs.push(ConvShape::new(
                    format!("conv{}_ds", stage + 2),
                    c_in,
                    w,
                    1,
                    2,
                    s,
                    s,
                ));
            }
            c_in = w;
        }
    }
    ArchGeometry {
        name: "resnet18",
        convs,
        fc_params: 512 * 1000,
    }
}

/// SqueezeNet v1.0 at 224×224 (Iandola et al. 2016).
pub fn squeezenet_layers() -> ArchGeometry {
    let mut convs = vec![ConvShape::new("conv1", 3, 96, 7, 2, 109, 109)];
    // fire(name, in, squeeze, expand) at spatial side s:
    let fire = |name: &str, c_in: usize, sq: usize, ex: usize, s: usize| {
        vec![
            ConvShape::new(format!("{name}_s1"), c_in, sq, 1, 1, s, s),
            ConvShape::new(format!("{name}_e1"), sq, ex, 1, 1, s, s),
            ConvShape::new(format!("{name}_e3"), sq, ex, 3, 1, s, s),
        ]
    };
    // maxpool 3/2 → 54.
    convs.extend(fire("fire2", 96, 16, 64, 54));
    convs.extend(fire("fire3", 128, 16, 64, 54));
    convs.extend(fire("fire4", 128, 32, 128, 54));
    // maxpool → 27.
    convs.extend(fire("fire5", 256, 32, 128, 27));
    convs.extend(fire("fire6", 256, 48, 192, 27));
    convs.extend(fire("fire7", 384, 48, 192, 27));
    convs.extend(fire("fire8", 384, 64, 256, 27));
    // maxpool → 13.
    convs.extend(fire("fire9", 512, 64, 256, 13));
    convs.push(ConvShape::new("conv10", 512, 1000, 1, 1, 13, 13));
    ArchGeometry {
        name: "squeezenet",
        convs,
        fc_params: 0, // fully convolutional
    }
}

/// GoogleNet / Inception-v1 at 224×224 (Szegedy et al. 2015).
pub fn googlenet_layers() -> ArchGeometry {
    let mut convs = vec![
        ConvShape::new("conv1", 3, 64, 7, 2, 112, 112),
        // maxpool → 56
        ConvShape::new("conv2_red", 64, 64, 1, 1, 56, 56),
        ConvShape::new("conv2", 64, 192, 3, 1, 56, 56),
        // maxpool → 28
    ];
    // (name, in, 1x1, 3x3red, 3x3, 5x5red, 5x5, poolproj, side)
    #[allow(clippy::type_complexity)]
    let modules: [(&str, usize, usize, usize, usize, usize, usize, usize, usize); 9] = [
        ("3a", 192, 64, 96, 128, 16, 32, 32, 28),
        ("3b", 256, 128, 128, 192, 32, 96, 64, 28),
        ("4a", 480, 192, 96, 208, 16, 48, 64, 14),
        ("4b", 512, 160, 112, 224, 24, 64, 64, 14),
        ("4c", 512, 128, 128, 256, 24, 64, 64, 14),
        ("4d", 512, 112, 144, 288, 32, 64, 64, 14),
        ("4e", 528, 256, 160, 320, 32, 128, 128, 14),
        ("5a", 832, 256, 160, 320, 32, 128, 128, 7),
        ("5b", 832, 384, 192, 384, 48, 128, 128, 7),
    ];
    for (name, c_in, p1, r3, p3, r5, p5, pp, s) in modules {
        convs.push(ConvShape::new(
            format!("inc{name}_1x1"),
            c_in,
            p1,
            1,
            1,
            s,
            s,
        ));
        convs.push(ConvShape::new(
            format!("inc{name}_3x3r"),
            c_in,
            r3,
            1,
            1,
            s,
            s,
        ));
        convs.push(ConvShape::new(format!("inc{name}_3x3"), r3, p3, 3, 1, s, s));
        convs.push(ConvShape::new(
            format!("inc{name}_5x5r"),
            c_in,
            r5,
            1,
            1,
            s,
            s,
        ));
        convs.push(ConvShape::new(format!("inc{name}_5x5"), r5, p5, 5, 1, s, s));
        convs.push(ConvShape::new(
            format!("inc{name}_pool"),
            c_in,
            pp,
            1,
            1,
            s,
            s,
        ));
    }
    ArchGeometry {
        name: "googlenet",
        convs,
        fc_params: 1024 * 1000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_matches_published_cost() {
        let g = resnet18_layers();
        // ~11.7 M params, ~1.82 G MACs (paper Table III: 11.83 M, 3743 MOPs).
        let p = g.params() as f64 / 1e6;
        let ops = g.ops() as f64 / 1e6;
        assert!((11.0..12.5).contains(&p), "params {p} M");
        assert!((3400.0..3900.0).contains(&ops), "{ops} MOPs");
    }

    #[test]
    fn squeezenet_matches_published_cost() {
        let g = squeezenet_layers();
        let p = g.params() as f64 / 1e6;
        let ops = g.ops() as f64 / 1e6;
        // Paper Table III: 1.23 M params, 1722 MOPs.
        assert!((1.1..1.4).contains(&p), "params {p} M");
        assert!((1500.0..1900.0).contains(&ops), "{ops} MOPs");
    }

    #[test]
    fn googlenet_matches_published_cost() {
        let g = googlenet_layers();
        let p = g.params() as f64 / 1e6;
        let ops = g.ops() as f64 / 1e6;
        // Paper Table III: 6.80 M params, 3004 MOPs.
        assert!((5.5..7.5).contains(&p), "params {p} M");
        assert!((2700.0..3300.0).contains(&ops), "{ops} MOPs");
    }

    #[test]
    fn inception_output_channels_chain_correctly() {
        // The declared c_in of each module must equal the concatenated
        // output of the previous one (1x1 + 3x3 + 5x5 + poolproj).
        let g = googlenet_layers();
        let outs: Vec<(String, usize)> =
            g.convs.iter().map(|c| (c.name.clone(), c.c_out)).collect();
        let module_out = |tag: &str| -> usize {
            outs.iter()
                .filter(|(n, _)| {
                    n.starts_with(&format!("inc{tag}_"))
                        && !n.ends_with("3x3r")
                        && !n.ends_with("5x5r")
                })
                .map(|(_, c)| c)
                .sum()
        };
        assert_eq!(module_out("3a"), 256);
        assert_eq!(module_out("3b"), 480);
        assert_eq!(module_out("4e"), 832);
        assert_eq!(module_out("5b"), 1024);
    }

    #[test]
    fn plain20_width_scales_quadratically() {
        let w16 = NetworkCost::of_layers(&plain20_layers_width(32, 16));
        let w8 = NetworkCost::of_layers(&plain20_layers_width(32, 8));
        let ratio = w16.params as f64 / w8.params as f64;
        assert!((3.5..4.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fire_modules_have_three_convs_each() {
        let g = squeezenet_layers();
        assert_eq!(g.convs.len(), 1 + 8 * 3 + 1);
    }
}
