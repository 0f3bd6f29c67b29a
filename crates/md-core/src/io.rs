//! Trajectory output: XYZ frames, the lingua franca of MD visualization
//! tools. Checkpoints are [`crate::checkpoint::SystemCheckpoint`]'s `MDCP1`
//! bytes.

use crate::system::ParticleSystem;
use std::io::{self, Write};
use vecmath::Real;

/// Append one XYZ frame (positions only, species label `Ar`).
pub fn write_xyz_frame<T: Real, W: Write>(
    out: &mut W,
    sys: &ParticleSystem<T>,
    comment: &str,
) -> io::Result<()> {
    assert!(!comment.contains('\n'), "XYZ comments are single-line");
    writeln!(out, "{}", sys.n())?;
    writeln!(out, "{comment}")?;
    for p in &sys.positions {
        writeln!(
            out,
            "Ar {:.9} {:.9} {:.9}",
            p.x.to_f64(),
            p.y.to_f64(),
            p.z.to_f64()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize;
    use crate::params::SimConfig;

    #[test]
    fn xyz_frame_layout() {
        let sys: ParticleSystem<f64> = initialize(&SimConfig::reduced_lj(32).with_density(0.2));
        let mut buf = Vec::new();
        write_xyz_frame(&mut buf, &sys, "frame 0").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 34);
        assert_eq!(lines[0], "32");
        assert_eq!(lines[1], "frame 0");
        for (line, p) in lines[2..].iter().zip(&sys.positions) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f[0], "Ar");
            for (k, c) in f[1..].iter().enumerate() {
                let v: f64 = c.parse().unwrap();
                assert!((v - p[k]).abs() < 1e-8, "9-digit text precision");
            }
        }
    }
}
