//! Synthetic grayscale images for the image-processing workloads.
//!
//! The paper feeds sobel and jpeg 512×512 images; this reproduction
//! generates seeded synthetic images (a mix of smooth gradients, blobs and
//! edges) so 500 distinct "photographs" are available without shipping
//! data. The generator intentionally produces both smooth regions (easy
//! for the NPU) and sharp edges (where approximation errors concentrate) —
//! the structure MITHRA's classifiers must learn to separate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A grayscale image with `f32` pixels in `[0, 255]`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<f32>,
}

impl GrayImage {
    /// Creates an all-black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Builds an image from existing row-major pixel storage.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<f32>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel storage size mismatch");
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`; coordinates are clamped to the border (the
    /// boundary handling both sobel and block DCT use).
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = value;
    }

    /// Row-major pixel storage.
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Generates a seeded synthetic image: a base gradient plus random
    /// soft blobs, sinusoidal texture and a few hard-edged rectangles,
    /// clamped to `[0, 255]`.
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut img = GrayImage::new(width, height);

        // Base: a tilted linear gradient.
        let gx: f32 = rng.gen_range(-0.8..0.8);
        let gy: f32 = rng.gen_range(-0.8..0.8);
        let base: f32 = rng.gen_range(60.0..180.0);

        // Soft Gaussian blobs.
        let blob_count = rng.gen_range(3..8);
        let blobs: Vec<(f32, f32, f32, f32)> = (0..blob_count)
            .map(|_| {
                (
                    rng.gen_range(0.0..width as f32),
                    rng.gen_range(0.0..height as f32),
                    rng.gen_range(2.0..(width as f32 / 2.0).max(4.0)),
                    rng.gen_range(-90.0..90.0),
                )
            })
            .collect();

        // Sinusoidal texture.
        let fx: f32 = rng.gen_range(0.05..0.4);
        let fy: f32 = rng.gen_range(0.05..0.4);
        let amp: f32 = rng.gen_range(2.0..15.0);

        // The texture factors depend on one coordinate each; hoisting
        // them keeps the `(amp * sin) * cos` evaluation order, so every
        // pixel is bit-identical to evaluating them in place.
        let column_texture: Vec<f32> = (0..width).map(|x| amp * (fx * x as f32).sin()).collect();
        for y in 0..height {
            let row_texture = (fy * y as f32).cos();
            for (x, &texture) in column_texture.iter().enumerate() {
                let mut v = base + gx * x as f32 + gy * y as f32;
                for &(bx, by, sigma, a) in &blobs {
                    let dx = x as f32 - bx;
                    let dy = y as f32 - by;
                    v += a * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
                }
                v += texture * row_texture;
                img.set(x, y, v.clamp(0.0, 255.0));
            }
        }

        // Hard-edged rectangles: the high-gradient content.
        let rect_count = rng.gen_range(1..4);
        for _ in 0..rect_count {
            let rw = rng
                .gen_range(width / 8..(width / 2).max(width / 8 + 1))
                .max(1);
            let rh = rng
                .gen_range(height / 8..(height / 2).max(height / 8 + 1))
                .max(1);
            let rx = rng.gen_range(0..width.saturating_sub(rw).max(1));
            let ry = rng.gen_range(0..height.saturating_sub(rh).max(1));
            let level: f32 = rng.gen_range(0.0..255.0);
            let alpha: f32 = rng.gen_range(0.5..1.0);
            for y in ry..(ry + rh).min(height) {
                for x in rx..(rx + rw).min(width) {
                    let old = img.get_clamped(x as isize, y as isize);
                    img.set(
                        x,
                        y,
                        (old * (1.0 - alpha) + level * alpha).clamp(0.0, 255.0),
                    );
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = GrayImage::synthetic(32, 32, 5);
        let b = GrayImage::synthetic(32, 32, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GrayImage::synthetic(32, 32, 1);
        let b = GrayImage::synthetic(32, 32, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn pixels_in_range() {
        let img = GrayImage::synthetic(48, 48, 99);
        assert!(img.pixels().iter().all(|&p| (0.0..=255.0).contains(&p)));
    }

    #[test]
    fn clamped_access_at_borders() {
        let mut img = GrayImage::new(4, 4);
        img.set(0, 0, 42.0);
        img.set(3, 3, 7.0);
        assert_eq!(img.get_clamped(-5, -5), 42.0);
        assert_eq!(img.get_clamped(10, 10), 7.0);
    }

    #[test]
    fn images_have_edges_and_smooth_regions() {
        // Gradient magnitude should span a wide range: near-zero in smooth
        // areas, large at rectangle borders.
        let img = GrayImage::synthetic(64, 64, 3);
        let mut max_grad = 0.0f32;
        let mut min_grad = f32::INFINITY;
        for y in 1..63 {
            for x in 1..63 {
                let gx = img.get_clamped(x + 1, y) - img.get_clamped(x - 1, y);
                let gy = img.get_clamped(x, y + 1) - img.get_clamped(x, y - 1);
                let g = (gx * gx + gy * gy).sqrt();
                max_grad = max_grad.max(g);
                min_grad = min_grad.min(g);
            }
        }
        assert!(max_grad > 50.0, "no strong edges ({max_grad})");
        assert!(min_grad < 5.0, "no smooth regions ({min_grad})");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_panics() {
        let _ = GrayImage::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_pixels_validates() {
        let _ = GrayImage::from_pixels(2, 2, vec![0.0; 3]);
    }
}
