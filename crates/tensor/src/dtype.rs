//! Modelled element types.
//!
//! All arithmetic in this reproduction runs in `f32` on the host; the
//! [`DType`] a kernel is called with describes the element type the
//! *modelled GPU kernel* would use, which determines byte sizes in the
//! performance model and whether Tensor-Core (`wmma`) tiles are eligible,
//! exactly mirroring how the paper evaluates fp16 and fp32 variants of the
//! same models (Figure 8).

/// Element type of a modelled kernel's operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE-754 single precision (4 bytes).
    F32,
    /// IEEE-754 half precision (2 bytes). Eligible for Tensor-Core tiles.
    F16,
}

impl DType {
    /// Size of one element in bytes on the modelled device.
    ///
    /// # Examples
    ///
    /// ```
    /// use pit_tensor::DType;
    /// assert_eq!(DType::F32.size_bytes(), 4);
    /// assert_eq!(DType::F16.size_bytes(), 2);
    /// ```
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
        }
    }

    /// Whether the modelled device may execute this dtype on Tensor Cores.
    pub const fn tensor_core_eligible(self) -> bool {
        matches!(self, DType::F16)
    }

    /// Short lowercase name, as used in experiment tables ("fp32", "fp16").
    pub const fn name(self) -> &'static str {
        match self {
            DType::F32 => "fp32",
            DType::F16 => "fp16",
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_ieee() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
    }

    #[test]
    fn only_f16_is_tensor_core_eligible() {
        assert!(DType::F16.tensor_core_eligible());
        assert!(!DType::F32.tensor_core_eligible());
    }

    #[test]
    fn display_names() {
        assert_eq!(DType::F32.to_string(), "fp32");
        assert_eq!(DType::F16.to_string(), "fp16");
    }
}
