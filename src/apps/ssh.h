// Flicker-protected SSH password authentication (paper §6.3.1, Fig. 7).
//
// Two Flicker sessions on the server:
//   * Setup: the PAL generates K_PAL, seals the private half to itself, and
//     outputs the public half; an attestation convinces the client that only
//     this PAL can ever decrypt.
//   * Login: the PAL unseals the private key, decrypts {password, nonce},
//     checks the nonce, computes md5crypt(salt, password) and outputs the
//     hash for comparison with /etc/passwd. The cleartext password exists on
//     the server only inside the session.

#ifndef FLICKER_SRC_APPS_SSH_H_
#define FLICKER_SRC_APPS_SSH_H_

#include <map>
#include <string>

#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/core/secure_channel.h"
#include "src/slb/pal.h"

namespace flicker {

inline constexpr uint8_t kSshModeSetup = 0;
inline constexpr uint8_t kSshModeLogin = 1;

// Bound on any login frame crossing the network; anything larger is hostile.
inline constexpr size_t kMaxSshFrameBytes = 64 * 1024;

// Wire form of one login attempt, so the exchange can ride a lossy session.
struct SshLoginRequest {
  std::string username;
  Bytes encrypted_password;
  Bytes login_nonce;

  Bytes Serialize() const;
  static Result<SshLoginRequest> Deserialize(const Bytes& data);
};

// One PAL with two modes: both sessions must have the same measurement so
// the sealed private key binds "to the same PAL in a subsequent session".
class SshPal : public Pal {
 public:
  std::string name() const override { return "ssh-password"; }
  std::vector<std::string> required_modules() const override {
    return {kModuleTpmDriver, kModuleTpmUtilities, kModuleCrypto, kModuleSecureChannel};
  }
  std::vector<std::string> required_symbols() const override {
    return {"secure_channel_keygen", "secure_channel_decrypt", "md5crypt", "tpm_unseal"};
  }
  size_t app_code_bytes() const override { return 1980; }
  int app_lines_of_code() const override { return 160; }

  Status Execute(PalContext* context) override;
};

// /etc/passwd-style entry: salt + md5crypt hash, never the password.
struct PasswdEntry {
  std::string username;
  std::string salt;
  std::string hashed_passwd;  // Full "$1$salt$hash" crypt string.
};

// The modified sshd. Holds the passwd database and the PAL key material
// produced at setup.
class SshServer {
 public:
  SshServer(FlickerPlatform* platform, const PalBinary* binary);

  Status AddUser(const std::string& username, const std::string& password,
                 const std::string& salt);

  // First Flicker session: establish K_PAL. Returns the session's
  // attestation bundle for the client to verify.
  struct SetupResult {
    Bytes public_key;
    Bytes setup_outputs;   // Raw PAL outputs (the serialized key material).
    AttestationResponse attestation;
    Bytes nonce;
    double pal1_total_ms = 0;
    double skinit_ms = 0;
  };
  Result<SetupResult> Setup(const Bytes& client_nonce);

  // The §6.3.1 optimization: "only create a new keypair the first time a
  // user connects". True when key material already exists, letting clients
  // that pinned K_PAL earlier skip straight to login (no PAL 1 session, no
  // quote - the ~1.2 s prompt latency disappears on reconnects).
  bool HasKeyMaterial() const { return !key_material_.empty(); }

  // Second Flicker session: process an encrypted password for `username`.
  struct LoginResult {
    bool authenticated = false;
    double pal2_total_ms = 0;
    double skinit_ms = 0;
  };
  Result<LoginResult> HandleLogin(const std::string& username, const Bytes& encrypted_password,
                                  const Bytes& login_nonce);

  // Wire entry point: a hostile, possibly corrupted login frame. Oversized
  // or malformed frames fail with a Status; a 1-byte authenticated verdict
  // is produced only for well-formed requests - never a wrong answer.
  Result<Bytes> HandleLoginFrame(const Bytes& frame);

  const Bytes& key_material() const { return key_material_; }

 private:
  FlickerPlatform* platform_;
  const PalBinary* binary_;
  std::map<std::string, PasswdEntry> passwd_;
  Bytes key_material_;  // Serialized SecureChannelKeyMaterial.
};

// The modified ssh client (flicker-password auth method).
class SshClient {
 public:
  SshClient(const PalBinary* expected_binary, const RsaPublicKey& privacy_ca_public,
            AikCertificate server_aik_cert, uint64_t seed = 0x55b);

  // Verifies the server's setup attestation; on success, pins K_PAL.
  Status VerifyServerSetup(const SshServer::SetupResult& setup, const Bytes& nonce);

  // Encrypts {password, nonce} under the pinned K_PAL (PKCS#1, §6.3.1).
  Result<Bytes> EncryptPassword(const std::string& password, const Bytes& login_nonce);

  Bytes MakeNonce() { return rng_.Generate(20); }
  const Bytes& pinned_public_key() const { return pinned_public_key_; }

 private:
  const PalBinary* expected_binary_;
  RsaPublicKey privacy_ca_public_;
  AikCertificate server_aik_cert_;
  Bytes pinned_public_key_;
  Drbg rng_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_APPS_SSH_H_
