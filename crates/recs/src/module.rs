//! Computer-on-Module form factors and microservers (paper Fig. 2).

use serde::{Deserialize, Serialize};
use std::fmt;
use vedliot_accel::catalog::{catalog, AcceleratorSpec};

/// Processor architecture of a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// x86-64.
    X86,
    /// 64-bit ARM.
    Arm64,
    /// FPGA SoC (programmable logic + ARM cores).
    FpgaSoc,
    /// GPU-accelerated ARM module (Jetson family).
    GpuSoc,
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Architecture::X86 => "x86",
            Architecture::Arm64 => "ARM",
            Architecture::FpgaSoc => "FPGA-SoC",
            Architecture::GpuSoc => "GPU-SoC",
        };
        f.write_str(name)
    }
}

/// A Computer-on-Module form-factor standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FormFactor {
    /// COM Express Basic Type 6 (125×95 mm).
    ComExpressType6,
    /// COM Express Basic Type 7 (125×95 mm, server I/O).
    ComExpressType7,
    /// COM-HPC Client (120×95/160×120 mm).
    ComHpcClient,
    /// COM-HPC Server (160×160 mm).
    ComHpcServer,
    /// SMARC 2.1 (82×50 mm).
    Smarc,
    /// NVIDIA Jetson SO-DIMM modules (69.6×45 mm).
    JetsonModule,
    /// Xilinx Kria SOM (77×60 mm, via adapter PCB on uRECS).
    Kria,
    /// Raspberry Pi Compute Module 4 (55×40 mm, via adapter PCB).
    RpiCm,
}

impl FormFactor {
    /// All form factors of Fig. 2.
    pub const ALL: [FormFactor; 8] = [
        FormFactor::ComExpressType6,
        FormFactor::ComExpressType7,
        FormFactor::ComHpcClient,
        FormFactor::ComHpcServer,
        FormFactor::Smarc,
        FormFactor::JetsonModule,
        FormFactor::Kria,
        FormFactor::RpiCm,
    ];

    /// Module dimensions in millimetres (width, depth).
    #[must_use]
    pub fn dimensions_mm(self) -> (f64, f64) {
        match self {
            FormFactor::ComExpressType6 | FormFactor::ComExpressType7 => (125.0, 95.0),
            FormFactor::ComHpcClient => (120.0, 95.0),
            FormFactor::ComHpcServer => (160.0, 160.0),
            FormFactor::Smarc => (82.0, 50.0),
            FormFactor::JetsonModule => (69.6, 45.0),
            FormFactor::Kria => (77.0, 60.0),
            FormFactor::RpiCm => (55.0, 40.0),
        }
    }

    /// Maximum module power per the standard, in watts.
    #[must_use]
    pub fn max_power_w(self) -> f64 {
        match self {
            FormFactor::ComExpressType6 => 137.0,
            FormFactor::ComExpressType7 => 137.0,
            FormFactor::ComHpcClient => 200.0,
            FormFactor::ComHpcServer => 358.0,
            FormFactor::Smarc => 15.0,
            FormFactor::JetsonModule => 30.0,
            FormFactor::Kria => 15.0,
            FormFactor::RpiCm => 7.0,
        }
    }

    /// Architectures available in this form factor (Fig. 2's rows:
    /// SMARC "support\[s\] with x86, ARM and FPGA-SoC more target
    /// architectures").
    #[must_use]
    pub fn architectures(self) -> &'static [Architecture] {
        match self {
            FormFactor::ComExpressType6 | FormFactor::ComExpressType7 => &[Architecture::X86],
            FormFactor::ComHpcClient | FormFactor::ComHpcServer => {
                &[Architecture::X86, Architecture::Arm64]
            }
            FormFactor::Smarc => &[
                Architecture::X86,
                Architecture::Arm64,
                Architecture::FpgaSoc,
            ],
            FormFactor::JetsonModule => &[Architecture::GpuSoc],
            FormFactor::Kria => &[Architecture::FpgaSoc],
            FormFactor::RpiCm => &[Architecture::Arm64],
        }
    }
}

impl fmt::Display for FormFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FormFactor::ComExpressType6 => "COM Express Type 6",
            FormFactor::ComExpressType7 => "COM Express Type 7",
            FormFactor::ComHpcClient => "COM-HPC Client",
            FormFactor::ComHpcServer => "COM-HPC Server",
            FormFactor::Smarc => "SMARC",
            FormFactor::JetsonModule => "Jetson module",
            FormFactor::Kria => "Kria SOM",
            FormFactor::RpiCm => "RPi Compute Module",
        };
        f.write_str(name)
    }
}

/// A microserver: a populated module that can host DL workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microserver {
    /// Product name.
    pub name: String,
    /// Form factor it ships in.
    pub form_factor: FormFactor,
    /// Processor architecture.
    pub architecture: Architecture,
    /// CPU core count.
    pub cores: usize,
    /// RAM in GiB.
    pub ram_gib: usize,
    /// The DL-capable compute device on the module (from the
    /// `vedliot-accel` catalog); also defines the module's power draw.
    pub accelerator: AcceleratorSpec,
}

impl Microserver {
    /// Peak power draw in watts (the accelerator TDP dominates).
    #[must_use]
    pub fn peak_power_w(&self) -> f64 {
        self.accelerator.tdp_w
    }

    /// Whether this module physically fits its own form factor's power
    /// envelope (sanity predicate used by chassis validation).
    #[must_use]
    pub fn within_form_factor_power(&self) -> bool {
        self.peak_power_w() <= self.form_factor.max_power_w()
    }
}

/// The standard microserver catalog used across the VEDLIoT platforms
/// (each pairs a Fig.-2 form factor with a Fig.-3/4 accelerator entry).
#[must_use]
pub fn standard_microservers() -> Vec<Microserver> {
    let db = catalog();
    let pick = |needle: &str| {
        db.find(needle)
            .unwrap_or_else(|| panic!("catalog entry {needle} missing"))
            .clone()
    };
    vec![
        Microserver {
            name: "CXP-EPYC-3451".into(),
            form_factor: FormFactor::ComExpressType7,
            architecture: Architecture::X86,
            cores: 16,
            ram_gib: 64,
            accelerator: pick("EPYC 3451"),
        },
        Microserver {
            name: "CXP-D1577".into(),
            form_factor: FormFactor::ComExpressType6,
            architecture: Architecture::X86,
            cores: 16,
            ram_gib: 32,
            accelerator: pick("Pentium D1577"),
        },
        Microserver {
            name: "COMHPC-GTX1660".into(),
            form_factor: FormFactor::ComHpcServer,
            architecture: Architecture::X86,
            cores: 8,
            ram_gib: 32,
            accelerator: pick("GTX 1660"),
        },
        Microserver {
            name: "Jetson Xavier NX".into(),
            form_factor: FormFactor::JetsonModule,
            architecture: Architecture::GpuSoc,
            cores: 6,
            ram_gib: 8,
            accelerator: pick("Xavier NX"),
        },
        Microserver {
            name: "Jetson TX2".into(),
            form_factor: FormFactor::JetsonModule,
            architecture: Architecture::GpuSoc,
            cores: 6,
            ram_gib: 8,
            accelerator: pick("Jetson TX2"),
        },
        Microserver {
            name: "SMARC-ZU3".into(),
            form_factor: FormFactor::Smarc,
            architecture: Architecture::FpgaSoc,
            cores: 4,
            ram_gib: 4,
            accelerator: pick("Zynq ZU3"),
        },
        Microserver {
            name: "Kria K26 SOM".into(),
            form_factor: FormFactor::Kria,
            architecture: Architecture::FpgaSoc,
            cores: 4,
            ram_gib: 4,
            accelerator: pick("Kria K26"),
        },
        Microserver {
            name: "RPi CM4".into(),
            form_factor: FormFactor::RpiCm,
            architecture: Architecture::Arm64,
            cores: 4,
            ram_gib: 8,
            accelerator: pick("Cortex-A72"),
        },
        Microserver {
            name: "Myriad-X M.2".into(),
            form_factor: FormFactor::Smarc,
            architecture: Architecture::Arm64,
            cores: 2,
            ram_gib: 2,
            accelerator: pick("Myriad X"),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_form_factors_have_plausible_dimensions() {
        for ff in FormFactor::ALL {
            let (w, d) = ff.dimensions_mm();
            assert!(w > 30.0 && w < 200.0, "{ff}: width {w}");
            assert!(d > 30.0 && d <= 160.0, "{ff}: depth {d}");
            assert!(ff.max_power_w() > 0.0);
            assert!(!ff.architectures().is_empty());
        }
    }

    #[test]
    fn smarc_supports_three_architectures() {
        // Fig. 2: "SMARC modules … support with x86, ARM and FPGA-SoC
        // more target architectures".
        let archs = FormFactor::Smarc.architectures();
        assert_eq!(archs.len(), 3);
        assert!(archs.contains(&Architecture::FpgaSoc));
    }

    #[test]
    fn standard_catalog_is_self_consistent() {
        let servers = standard_microservers();
        assert!(servers.len() >= 8);
        for m in &servers {
            assert!(
                m.form_factor.architectures().contains(&m.architecture),
                "{}: {} not available in {}",
                m.name,
                m.architecture,
                m.form_factor
            );
            assert!(
                m.within_form_factor_power(),
                "{}: {} W exceeds {} envelope",
                m.name,
                m.peak_power_w(),
                m.form_factor
            );
        }
    }

    #[test]
    fn embedded_modules_are_low_power() {
        // uRECS targets < 15 W modules (SMARC / Jetson / Kria / RPi).
        for m in standard_microservers() {
            if matches!(
                m.form_factor,
                FormFactor::Smarc | FormFactor::Kria | FormFactor::RpiCm
            ) {
                assert!(
                    m.peak_power_w() <= 15.0,
                    "{} draws {}",
                    m.name,
                    m.peak_power_w()
                );
            }
        }
    }
}
