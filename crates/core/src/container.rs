//! Data containers mirroring the shapes of the paper's two benchmarks.
//!
//! - [`Image`] — a single 2-D frame (one NGST readout, or one OTIS
//!   wavelength plane).
//! - [`ImageStack`] — the NGST input: `N` temporal readouts of the same
//!   `width × height` detector region within one 1000-second baseline.
//! - [`Cube`] — the OTIS input: a 3-D array whose `x`/`y` axes are geography
//!   and whose `z` axis is radiance at different wavelengths (§7.1).

use crate::error::CoreError;

/// A rectangular 2-D raster stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Image<T> {
    /// Creates a `width × height` image filled with `T::default()`.
    pub fn new(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            data: vec![T::default(); width * height],
        }
    }
}

impl<T: Copy> Image<T> {
    /// Creates an image filled with `fill`.
    pub fn filled(width: usize, height: usize, fill: T) -> Self {
        Image {
            width,
            height,
            data: vec![fill; width * height],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, CoreError> {
        if data.len() != width * height {
            return Err(CoreError::DimensionMismatch {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the image holds no pixels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if `x >= width` or `y >= height`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if `x >= width` or `y >= height`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x] = v;
    }

    /// The pixel at `(x, y)` with *mirror reflection* for out-of-range
    /// coordinates, so neighborhood windows are total at the borders.
    #[inline]
    pub fn get_reflect(&self, x: isize, y: isize) -> T {
        let rx = reflect_index(x, self.width);
        let ry = reflect_index(y, self.height);
        self.data[ry * self.width + rx]
    }

    /// Row `y` as a slice.
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Copies column `x` into `buf` (cleared and resized to `height`),
    /// without per-element bounds checks.
    ///
    /// # Panics
    /// Panics if `x >= width`.
    pub fn copy_col_into(&self, x: usize, buf: &mut Vec<T>) {
        assert!(x < self.width, "column {x} out of bounds");
        buf.clear();
        if self.height == 0 {
            return;
        }
        buf.extend(self.data[x..].iter().step_by(self.width).copied());
    }

    /// Writes `col` back into column `x`, without per-element bounds checks.
    ///
    /// # Panics
    /// Panics if `x >= width` or `col.len() != height`.
    pub fn write_col(&mut self, x: usize, col: &[T]) {
        assert!(x < self.width, "column {x} out of bounds");
        assert_eq!(col.len(), self.height, "column length must equal height");
        if self.height == 0 {
            return;
        }
        for (dst, &v) in self.data[x..].iter_mut().step_by(self.width).zip(col) {
            *dst = v;
        }
    }

    /// Row `y` as a mutable slice.
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// The whole raster as a row-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole raster as a mutable row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the image, returning its backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// A new image produced by applying `f` to every pixel.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Copies the `tw × th` tile whose top-left corner is `(tx, ty)`.
    ///
    /// # Panics
    /// Panics if the tile extends past the image.
    pub fn tile(&self, tx: usize, ty: usize, tw: usize, th: usize) -> Image<T> {
        assert!(
            tx + tw <= self.width && ty + th <= self.height,
            "tile out of bounds"
        );
        let mut data = Vec::with_capacity(tw * th);
        for y in ty..ty + th {
            data.extend_from_slice(&self.data[y * self.width + tx..y * self.width + tx + tw]);
        }
        Image {
            width: tw,
            height: th,
            data,
        }
    }

    /// Writes `tile` back at top-left corner `(tx, ty)`.
    ///
    /// # Panics
    /// Panics if the tile extends past the image.
    pub fn blit(&mut self, tx: usize, ty: usize, tile: &Image<T>) {
        assert!(
            tx + tile.width <= self.width && ty + tile.height <= self.height,
            "blit out of bounds"
        );
        for y in 0..tile.height {
            let dst = (ty + y) * self.width + tx;
            self.data[dst..dst + tile.width].copy_from_slice(tile.row(y));
        }
    }
}

/// `N` temporal readouts of the same detector region, stored frame-major.
///
/// This is the NGST input shape: `frames` non-destructive readouts sampled
/// within one baseline, each a `width × height` raster. The temporal series
/// of a single coordinate `(x, y)` — the unit `Algo_NGST` operates on — is
/// gathered and scattered with [`ImageStack::gather_series`] /
/// [`ImageStack::scatter_series`].
#[derive(Debug, Clone, PartialEq)]
pub struct ImageStack<T> {
    width: usize,
    height: usize,
    frames: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> ImageStack<T> {
    /// Creates a stack of `frames` zeroed `width × height` rasters.
    pub fn new(width: usize, height: usize, frames: usize) -> Self {
        ImageStack {
            width,
            height,
            frames,
            data: vec![T::default(); width * height * frames],
        }
    }
}

impl<T: Copy> ImageStack<T> {
    /// Wraps an existing frame-major buffer.
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] on an inconsistent length.
    pub fn from_vec(
        width: usize,
        height: usize,
        frames: usize,
        data: Vec<T>,
    ) -> Result<Self, CoreError> {
        if data.len() != width * height * frames {
            return Err(CoreError::DimensionMismatch {
                expected: width * height * frames,
                actual: data.len(),
            });
        }
        Ok(ImageStack {
            width,
            height,
            frames,
            data,
        })
    }

    /// Consumes the stack, returning the frame-major sample buffer — the
    /// inverse of [`ImageStack::from_vec`], so callers recycling buffers
    /// (the serving daemon's pixel pool) never copy on the way out.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Builds a stack from individual frames (all must share dimensions).
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] if frame shapes differ or the
    /// iterator is empty.
    pub fn from_frames(frames: Vec<Image<T>>) -> Result<Self, CoreError> {
        let Some(first) = frames.first() else {
            return Err(CoreError::DimensionMismatch {
                expected: 1,
                actual: 0,
            });
        };
        let (w, h) = (first.width(), first.height());
        let mut data = Vec::with_capacity(w * h * frames.len());
        let n = frames.len();
        for f in &frames {
            if f.width() != w || f.height() != h {
                return Err(CoreError::DimensionMismatch {
                    expected: w * h,
                    actual: f.len(),
                });
            }
            data.extend_from_slice(f.as_slice());
        }
        Ok(ImageStack {
            width: w,
            height: h,
            frames: n,
            data,
        })
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of temporal readouts.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Pixels per frame.
    pub fn frame_len(&self) -> usize {
        self.width * self.height
    }

    /// Total number of samples across all frames.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the stack holds no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Frame `i` as a row-major slice.
    pub fn frame(&self, i: usize) -> &[T] {
        let n = self.frame_len();
        &self.data[i * n..(i + 1) * n]
    }

    /// Frame `i` as a mutable row-major slice.
    pub fn frame_mut(&mut self, i: usize) -> &mut [T] {
        let n = self.frame_len();
        &mut self.data[i * n..(i + 1) * n]
    }

    /// Frame `i` copied out as an [`Image`].
    pub fn frame_image(&self, i: usize) -> Image<T> {
        Image {
            width: self.width,
            height: self.height,
            data: self.frame(i).to_vec(),
        }
    }

    /// The sample of frame `i` at coordinate `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, i: usize) -> T {
        self.data[i * self.frame_len() + y * self.width + x]
    }

    /// Sets the sample of frame `i` at coordinate `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, i: usize, v: T) {
        let idx = i * self.frame_len() + y * self.width + x;
        self.data[idx] = v;
    }

    /// Copies the temporal series of coordinate `(x, y)` into `buf`.
    ///
    /// `buf` is resized to `frames()` elements.
    pub fn gather_series(&self, x: usize, y: usize, buf: &mut Vec<T>) {
        buf.clear();
        let stride = self.frame_len();
        let base = y * self.width + x;
        buf.extend((0..self.frames).map(|i| self.data[i * stride + base]));
    }

    /// Writes a temporal series back to coordinate `(x, y)`.
    ///
    /// # Panics
    /// Panics if `series.len() != frames()`.
    pub fn scatter_series(&mut self, x: usize, y: usize, series: &[T]) {
        assert_eq!(
            series.len(),
            self.frames,
            "series length must equal frame count"
        );
        let stride = self.frame_len();
        let base = y * self.width + x;
        for (i, &v) in series.iter().enumerate() {
            self.data[i * stride + base] = v;
        }
    }

    /// Applies `f` to the temporal series of every coordinate, writing any
    /// mutation back. The accumulated return values are summed — handy for
    /// counting corrected samples.
    pub fn for_each_series(&mut self, mut f: impl FnMut(&mut [T]) -> usize) -> usize {
        let mut buf = Vec::with_capacity(self.frames);
        let mut total = 0;
        for y in 0..self.height {
            for x in 0..self.width {
                self.gather_series(x, y, &mut buf);
                total += f(&mut buf);
                self.scatter_series(x, y, &buf);
            }
        }
        total
    }

    /// The whole stack as a frame-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole stack as a mutable frame-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies a `tw × th` spatial tile (all frames) with top-left `(tx, ty)`.
    ///
    /// # Panics
    /// Panics if the tile extends past the frame.
    pub fn tile(&self, tx: usize, ty: usize, tw: usize, th: usize) -> ImageStack<T> {
        assert!(
            tx + tw <= self.width && ty + th <= self.height,
            "tile out of bounds"
        );
        let mut data = Vec::with_capacity(tw * th * self.frames);
        for i in 0..self.frames {
            let f = self.frame(i);
            for y in ty..ty + th {
                data.extend_from_slice(&f[y * self.width + tx..y * self.width + tx + tw]);
            }
        }
        ImageStack {
            width: tw,
            height: th,
            frames: self.frames,
            data,
        }
    }

    /// Writes a spatial tile (all frames) back at top-left `(tx, ty)`.
    ///
    /// # Panics
    /// Panics if frame counts differ or the tile extends past the frame.
    pub fn blit(&mut self, tx: usize, ty: usize, tile: &ImageStack<T>) {
        assert_eq!(tile.frames, self.frames, "frame count mismatch");
        assert!(
            tx + tile.width <= self.width && ty + tile.height <= self.height,
            "blit out of bounds"
        );
        for i in 0..self.frames {
            let stride = self.frame_len();
            for y in 0..tile.height {
                let src = tile.frame(i);
                let dst = i * stride + (ty + y) * self.width + tx;
                self.data[dst..dst + tile.width]
                    .copy_from_slice(&src[y * tile.width..(y + 1) * tile.width]);
            }
        }
    }
}

/// A 3-D data cube: `bands` planes of `width × height`, plane-major.
///
/// This is the OTIS input shape (§7.1): `x`/`y` are geography, the `z` axis
/// holds radiance of the same region at different wavelengths.
#[derive(Debug, Clone, PartialEq)]
pub struct Cube<T> {
    width: usize,
    height: usize,
    bands: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Cube<T> {
    /// Creates a zeroed cube.
    pub fn new(width: usize, height: usize, bands: usize) -> Self {
        Cube {
            width,
            height,
            bands,
            data: vec![T::default(); width * height * bands],
        }
    }
}

impl<T: Copy> Cube<T> {
    /// Wraps an existing plane-major buffer.
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] on an inconsistent length.
    pub fn from_vec(
        width: usize,
        height: usize,
        bands: usize,
        data: Vec<T>,
    ) -> Result<Self, CoreError> {
        if data.len() != width * height * bands {
            return Err(CoreError::DimensionMismatch {
                expected: width * height * bands,
                actual: data.len(),
            });
        }
        Ok(Cube {
            width,
            height,
            bands,
            data,
        })
    }

    /// Builds a cube from per-band planes (all must share dimensions).
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] if plane shapes differ or the
    /// vector is empty.
    pub fn from_planes(planes: Vec<Image<T>>) -> Result<Self, CoreError> {
        let Some(first) = planes.first() else {
            return Err(CoreError::DimensionMismatch {
                expected: 1,
                actual: 0,
            });
        };
        let (w, h) = (first.width(), first.height());
        let bands = planes.len();
        let mut data = Vec::with_capacity(w * h * bands);
        for p in &planes {
            if p.width() != w || p.height() != h {
                return Err(CoreError::DimensionMismatch {
                    expected: w * h,
                    actual: p.len(),
                });
            }
            data.extend_from_slice(p.as_slice());
        }
        Ok(Cube {
            width: w,
            height: h,
            bands,
            data,
        })
    }

    /// Plane width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of wavelength bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Pixels per plane.
    pub fn plane_len(&self) -> usize {
        self.width * self.height
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the cube holds no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Band `b` as a row-major slice.
    pub fn plane(&self, b: usize) -> &[T] {
        let n = self.plane_len();
        &self.data[b * n..(b + 1) * n]
    }

    /// Band `b` as a mutable row-major slice.
    pub fn plane_mut(&mut self, b: usize) -> &mut [T] {
        let n = self.plane_len();
        &mut self.data[b * n..(b + 1) * n]
    }

    /// Band `b` copied out as an [`Image`].
    pub fn plane_image(&self, b: usize) -> Image<T> {
        Image {
            width: self.width,
            height: self.height,
            data: self.plane(b).to_vec(),
        }
    }

    /// Overwrites band `b` from an [`Image`].
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn set_plane(&mut self, b: usize, img: &Image<T>) {
        assert!(
            img.width() == self.width && img.height() == self.height,
            "plane shape mismatch"
        );
        self.plane_mut(b).copy_from_slice(img.as_slice());
    }

    /// The sample at `(x, y)` in band `b`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, b: usize) -> T {
        self.data[b * self.plane_len() + y * self.width + x]
    }

    /// Sets the sample at `(x, y)` in band `b`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, b: usize, v: T) {
        let idx = b * self.plane_len() + y * self.width + x;
        self.data[idx] = v;
    }

    /// Copies the spectrum (all bands) of coordinate `(x, y)` into `buf`.
    pub fn gather_spectrum(&self, x: usize, y: usize, buf: &mut Vec<T>) {
        buf.clear();
        let stride = self.plane_len();
        let base = y * self.width + x;
        buf.extend((0..self.bands).map(|b| self.data[b * stride + base]));
    }

    /// Writes a spectrum back to coordinate `(x, y)`.
    ///
    /// # Panics
    /// Panics if `spectrum.len() != bands()`.
    pub fn scatter_spectrum(&mut self, x: usize, y: usize, spectrum: &[T]) {
        assert_eq!(
            spectrum.len(),
            self.bands,
            "spectrum length must equal band count"
        );
        let stride = self.plane_len();
        let base = y * self.width + x;
        for (b, &v) in spectrum.iter().enumerate() {
            self.data[b * stride + base] = v;
        }
    }

    /// The whole cube as a plane-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole cube as a mutable plane-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// Folds an arbitrary (possibly negative) index into `0..n` by mirror
/// reflection about the array ends, e.g. for `n = 4`:
/// `-2 -1 | 0 1 2 3 | 4 5` maps to `1 0 | 0 1 2 3 | 3 2`.
///
/// # Panics
/// Panics if `n == 0`.
#[inline]
pub fn reflect_index(i: isize, n: usize) -> usize {
    assert!(n > 0, "cannot reflect into an empty range");
    let n = n as isize;
    if n == 1 {
        return 0;
    }
    let period = 2 * n;
    let mut i = i.rem_euclid(period);
    if i >= n {
        i = period - 1 - i;
    }
    i as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflect_index_basics() {
        assert_eq!(reflect_index(0, 4), 0);
        assert_eq!(reflect_index(3, 4), 3);
        assert_eq!(reflect_index(4, 4), 3);
        assert_eq!(reflect_index(5, 4), 2);
        assert_eq!(reflect_index(-1, 4), 0);
        assert_eq!(reflect_index(-2, 4), 1);
        assert_eq!(reflect_index(0, 1), 0);
        assert_eq!(reflect_index(100, 1), 0);
        assert_eq!(reflect_index(-100, 1), 0);
    }

    #[test]
    fn reflect_index_is_periodic_and_in_range() {
        for n in 1..8usize {
            for i in -50..50isize {
                let r = reflect_index(i, n);
                assert!(r < n);
            }
        }
    }

    #[test]
    fn image_get_set_and_rows() {
        let mut img: Image<u16> = Image::new(3, 2);
        img.set(2, 1, 42);
        assert_eq!(img.get(2, 1), 42);
        assert_eq!(img.row(1), &[0, 0, 42]);
        assert_eq!(img.len(), 6);
        assert!(!img.is_empty());
    }

    #[test]
    fn image_from_vec_validates() {
        assert!(Image::from_vec(2, 2, vec![1u16; 4]).is_ok());
        let err = Image::from_vec(2, 2, vec![1u16; 5]).unwrap_err();
        assert_eq!(
            err,
            CoreError::DimensionMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn image_reflective_access() {
        let img = Image::from_vec(3, 2, vec![1u16, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(img.get_reflect(-1, 0), 1);
        assert_eq!(img.get_reflect(3, 0), 3);
        assert_eq!(img.get_reflect(0, 2), 4);
        assert_eq!(img.get_reflect(1, 1), 5);
    }

    #[test]
    fn image_tile_blit_roundtrip() {
        let img = Image::from_vec(4, 4, (0u16..16).collect()).unwrap();
        let t = img.tile(1, 1, 2, 2);
        assert_eq!(t.as_slice(), &[5, 6, 9, 10]);
        let mut dst: Image<u16> = Image::new(4, 4);
        dst.blit(1, 1, &t);
        assert_eq!(dst.get(1, 1), 5);
        assert_eq!(dst.get(2, 2), 10);
        assert_eq!(dst.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "tile out of bounds")]
    fn image_tile_out_of_bounds_panics() {
        let img: Image<u16> = Image::new(4, 4);
        let _ = img.tile(3, 3, 2, 2);
    }

    #[test]
    fn image_map_changes_type() {
        let img = Image::from_vec(2, 1, vec![1u16, 2]).unwrap();
        let f = img.map(|v| v as f32 * 0.5);
        assert_eq!(f.as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn stack_series_gather_scatter() {
        let mut st: ImageStack<u16> = ImageStack::new(2, 2, 3);
        st.set(1, 0, 0, 10);
        st.set(1, 0, 1, 20);
        st.set(1, 0, 2, 30);
        let mut buf = Vec::new();
        st.gather_series(1, 0, &mut buf);
        assert_eq!(buf, vec![10, 20, 30]);
        buf[1] = 21;
        st.scatter_series(1, 0, &buf);
        assert_eq!(st.get(1, 0, 1), 21);
    }

    #[test]
    fn stack_for_each_series_counts() {
        let mut st: ImageStack<u16> = ImageStack::new(2, 2, 2);
        let n = st.for_each_series(|s| {
            s[0] = 7;
            1
        });
        assert_eq!(n, 4);
        assert!(st.frame(0).iter().all(|&v| v == 7));
        assert!(st.frame(1).iter().all(|&v| v == 0));
    }

    #[test]
    fn stack_from_frames_and_tiles() {
        let f0 = Image::from_vec(4, 2, (0u16..8).collect()).unwrap();
        let f1 = Image::from_vec(4, 2, (8u16..16).collect()).unwrap();
        let st = ImageStack::from_frames(vec![f0, f1]).unwrap();
        assert_eq!(st.frames(), 2);
        let t = st.tile(2, 0, 2, 2);
        assert_eq!(t.frame(0), &[2, 3, 6, 7]);
        assert_eq!(t.frame(1), &[10, 11, 14, 15]);
        let mut st2: ImageStack<u16> = ImageStack::new(4, 2, 2);
        st2.blit(2, 0, &t);
        assert_eq!(st2.get(2, 0, 1), 10);
        assert_eq!(st2.get(0, 0, 1), 0);
    }

    #[test]
    fn image_column_helpers_roundtrip() {
        let mut img = Image::from_vec(3, 4, (0u16..12).collect()).unwrap();
        let mut col = Vec::new();
        img.copy_col_into(1, &mut col);
        assert_eq!(col, vec![1, 4, 7, 10]);
        col.iter_mut().for_each(|v| *v += 100);
        img.write_col(1, &col);
        for y in 0..4 {
            assert_eq!(img.get(1, y), 101 + 3 * y as u16);
            assert_eq!(img.get(0, y), 3 * y as u16, "neighbor column untouched");
        }
    }

    #[test]
    #[should_panic(expected = "column 3 out of bounds")]
    fn image_column_out_of_bounds_panics() {
        let img: Image<u16> = Image::new(3, 4);
        let mut col = Vec::new();
        img.copy_col_into(3, &mut col);
    }

    #[test]
    fn stack_from_frames_rejects_mismatch() {
        let f0: Image<u16> = Image::new(2, 2);
        let f1: Image<u16> = Image::new(3, 2);
        assert!(ImageStack::from_frames(vec![f0, f1]).is_err());
        assert!(ImageStack::<u16>::from_frames(vec![]).is_err());
    }

    #[test]
    fn cube_spectrum_access() {
        let mut c: Cube<f32> = Cube::new(2, 2, 3);
        c.set(0, 1, 0, 1.0);
        c.set(0, 1, 1, 2.0);
        c.set(0, 1, 2, 3.0);
        let mut buf = Vec::new();
        c.gather_spectrum(0, 1, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        buf[2] = 9.0;
        c.scatter_spectrum(0, 1, &buf);
        assert_eq!(c.get(0, 1, 2), 9.0);
    }

    #[test]
    fn cube_planes() {
        let p0 = Image::filled(2, 2, 1.0f32);
        let p1 = Image::filled(2, 2, 2.0f32);
        let mut c = Cube::from_planes(vec![p0, p1]).unwrap();
        assert_eq!(c.bands(), 2);
        assert_eq!(c.plane(1), &[2.0; 4]);
        let img = c.plane_image(0);
        assert_eq!(img.as_slice(), &[1.0; 4]);
        c.set_plane(1, &Image::filled(2, 2, 5.0f32));
        assert_eq!(c.plane(1), &[5.0; 4]);
    }

    #[test]
    fn cube_from_vec_validates() {
        assert!(Cube::from_vec(2, 2, 2, vec![0f32; 8]).is_ok());
        assert!(Cube::from_vec(2, 2, 2, vec![0f32; 7]).is_err());
    }
}
