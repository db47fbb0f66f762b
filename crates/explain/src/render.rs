//! Heat-map rendering: ASCII art and a PPM overlay writer.

use std::io::Write;
use std::path::Path;

use crate::ExplainError;
use reveil_tensor::Tensor;

/// Renders a rank-2 map (values in `[0, 1]`) as ASCII art using a
/// brightness ramp.
///
/// # Errors
///
/// Returns [`ExplainError::BadShape`] if `map` is not rank-2.
pub fn to_ascii(map: &Tensor) -> Result<String, ExplainError> {
    let &[h, w] = map.shape() else {
        return Err(ExplainError::BadShape {
            expected: "an [h, w] map",
            got: map.shape().to_vec(),
        });
    };
    const RAMP: &[u8] = b" .:-=+*#%@";
    let mut out = String::with_capacity(h * (w + 1));
    for y in 0..h {
        for x in 0..w {
            let v = map.at(&[y, x]).clamp(0.0, 1.0);
            let idx = ((v * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    Ok(out)
}

/// Maps `v ∈ [0, 1]` to an RGB heat colour (blue → cyan → yellow → red).
pub fn heat_color(v: f32) -> [u8; 3] {
    let v = v.clamp(0.0, 1.0);
    let (r, g, b) = if v < 0.25 {
        (0.0, v / 0.25, 1.0)
    } else if v < 0.5 {
        (0.0, 1.0, 1.0 - (v - 0.25) / 0.25)
    } else if v < 0.75 {
        ((v - 0.5) / 0.25, 1.0, 0.0)
    } else {
        (1.0, 1.0 - (v - 0.75) / 0.25, 0.0)
    };
    [(r * 255.0) as u8, (g * 255.0) as u8, (b * 255.0) as u8]
}

/// Writes a heat-map overlay as a binary PPM (colour) image: the base image
/// in grey, blended with the heat colours of `map`.
///
/// `image` is `[c, h, w]` in `[0, 1]` (1 or 3 channels); `map` is `[h, w]`.
///
/// # Errors
///
/// Returns [`ExplainError::BadShape`] on a shape mismatch between `image`
/// and `map`, and [`ExplainError::Io`] for any error creating or writing
/// the file.
pub fn write_overlay_ppm(
    image: &Tensor,
    map: &Tensor,
    alpha: f32,
    path: impl AsRef<Path>,
) -> Result<(), ExplainError> {
    let &[c, h, w] = image.shape() else {
        return Err(ExplainError::BadShape {
            expected: "a [c, h, w] image",
            got: image.shape().to_vec(),
        });
    };
    if map.shape() != [h, w] {
        return Err(ExplainError::BadShape {
            expected: "an [h, w] map matching the image",
            got: map.shape().to_vec(),
        });
    }
    let mut file = std::fs::File::create(path)?;
    write!(file, "P6\n{w} {h}\n255\n")?;
    let mut bytes = Vec::with_capacity(h * w * 3);
    for y in 0..h {
        for x in 0..w {
            let grey = if c >= 3 {
                0.299 * image.at(&[0, y, x])
                    + 0.587 * image.at(&[1, y, x])
                    + 0.114 * image.at(&[2, y, x])
            } else {
                image.at(&[0, y, x])
            };
            let heat = heat_color(map.at(&[y, x]));
            let base = grey * 255.0;
            for &h in &heat {
                let v = (1.0 - alpha) * base + alpha * h as f32;
                bytes.push(v.clamp(0.0, 255.0) as u8);
            }
        }
    }
    file.write_all(&bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_ramp_is_monotone() {
        let map = Tensor::from_vec(vec![1, 3], vec![0.0, 0.5, 1.0]).unwrap();
        let art = to_ascii(&map).unwrap();
        assert_eq!(art, " +@\n");
    }

    #[test]
    fn heat_color_endpoints() {
        assert_eq!(heat_color(0.0), [0, 0, 255]);
        assert_eq!(heat_color(1.0), [255, 0, 0]);
        let mid = heat_color(0.5);
        assert!(mid[1] > 200, "midpoint is green-ish: {mid:?}");
    }

    #[test]
    fn overlay_ppm_writes_rgb_grid() {
        let image = Tensor::full(&[3, 2, 2], 0.5);
        let map = Tensor::from_vec(vec![2, 2], vec![0.0, 0.3, 0.7, 1.0]).unwrap();
        let path = std::env::temp_dir().join("reveil_test_overlay.ppm");
        write_overlay_ppm(&image, &map, 0.5, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(bytes.len(), 11 + 12);
        std::fs::remove_file(&path).ok();
    }
}
