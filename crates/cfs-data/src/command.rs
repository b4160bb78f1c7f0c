//! Raft-replicated commands of the overwrite path (§2.2.4).

use cfs_types::codec::{Decode, Decoder, Encode, Encoder};
use cfs_types::crc::crc32;
use cfs_types::{CfsError, ExtentId, Result};

/// A command proposed through a data partition's Raft group. Only
/// overwrites travel this path — appends use primary-backup (§2.2.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataCommand {
    Overwrite {
        extent: ExtentId,
        offset: u64,
        data: Vec<u8>,
        crc: u32,
    },
}

impl DataCommand {
    /// An overwrite command with its payload CRC computed.
    pub fn overwrite(extent: ExtentId, offset: u64, data: Vec<u8>) -> Self {
        let crc = crc32(&data);
        DataCommand::Overwrite {
            extent,
            offset,
            data,
            crc,
        }
    }

    /// Verify payload integrity.
    pub fn verify(&self) -> Result<()> {
        match self {
            DataCommand::Overwrite { data, crc, .. } => {
                if crc32(data) != *crc {
                    return Err(CfsError::Corrupt("overwrite payload crc mismatch".into()));
                }
                Ok(())
            }
        }
    }
}

/// An overwrite is the only command, and it rides a group-commit frame
/// that delimits it: no tag, and the payload is whatever follows the
/// fixed fields.
impl Encode for DataCommand {
    fn encode(&self, enc: &mut Encoder) {
        let DataCommand::Overwrite {
            extent,
            offset,
            data,
            crc,
        } = self;
        extent.encode(enc);
        enc.put_u64(*offset);
        enc.put_u32(*crc);
        enc.put_raw(data);
    }
}

impl Decode for DataCommand {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(DataCommand::Overwrite {
            extent: ExtentId::decode(dec)?,
            offset: dec.get_u64()?,
            crc: dec.get_u32()?,
            data: dec.take(dec.remaining())?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::codec::roundtrip;

    #[test]
    fn codec_roundtrip() {
        let c = DataCommand::overwrite(ExtentId(3), 4096, vec![1, 2, 3]);
        assert_eq!(roundtrip(&c).unwrap(), c);
        assert!(c.verify().is_ok());
    }

    #[test]
    fn verify_detects_corruption() {
        let DataCommand::Overwrite {
            extent,
            offset,
            mut data,
            crc,
        } = DataCommand::overwrite(ExtentId(1), 0, vec![9; 64]);
        data[10] ^= 1;
        let c = DataCommand::Overwrite {
            extent,
            offset,
            data,
            crc,
        };
        assert!(c.verify().is_err());
    }

    #[test]
    fn truncated_command_rejected() {
        assert!(DataCommand::from_bytes(&[42]).is_err());
        let bytes = DataCommand::overwrite(ExtentId(1), 0, vec![]).to_bytes();
        assert!(DataCommand::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
