//! Netpbm PGM image output (P5 binary), 8-bit only.

use std::io::Write;

use crate::image::GrayImage;

/// Writes a binary (P5) PGM image.
///
/// # Errors
///
/// Returns the writer's error on write failure.
pub fn write_pgm(image: &GrayImage, writer: &mut impl Write) -> std::io::Result<()> {
    writeln!(writer, "P5")?;
    writeln!(writer, "# sdlc-imgproc")?;
    writeln!(writer, "{} {}", image.width(), image.height())?;
    writeln!(writer, "255")?;
    writer.write_all(image.pixels())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_byte_exact_p5() {
        let img = GrayImage::from_raw(3, 2, vec![0, 1, 127, 128, 254, 255]);
        let mut buffer = Vec::new();
        write_pgm(&img, &mut buffer).unwrap();
        assert_eq!(
            buffer,
            b"P5\n# sdlc-imgproc\n3 2\n255\n\x00\x01\x7f\x80\xfe\xff".to_vec()
        );
    }
}
