//===- AnalysisCache.cpp - On-disk persistence of analysis results ----------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "dataflow/AnalysisCache.h"

#include "cfg/CfgPrinter.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include <unistd.h>

using namespace closer;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over bytes. The entry keys are an on-disk format: changing this
/// mix orphans every cache directory already written.
struct Fnv1a {
  uint64_t H = 0xcbf29ce484222325ull;
  void mix(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
    H ^= 0xff; // Separator, so field boundaries matter.
    H *= 1099511628211ull;
  }
  void mix(uint64_t V) { mix(std::to_string(V)); }
};

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

uint64_t closer::fingerprintProc(const ProcCfg &Proc) {
  Fnv1a H;
  H.mix("closer-proc-fp-v1");
  H.mix(Proc.Name);
  H.mix(Proc.Params.size());
  for (const std::string &P : Proc.Params)
    H.mix(P);
  H.mix(Proc.Locals.size());
  for (const LocalVar &L : Proc.Locals) {
    H.mix(L.Name);
    H.mix(static_cast<uint64_t>(L.ArraySize));
  }
  H.mix(static_cast<uint64_t>(Proc.Entry));
  H.mix(printCfg(Proc));
  return H.H;
}

uint64_t closer::fingerprintModule(const Module &Mod) {
  Fnv1a H;
  H.mix("closer-analysis-cache-v1");
  // printModule covers declarations (channels, globals, processes) and the
  // full listing of every procedure.
  H.mix(printModule(Mod));
  return H.H;
}

//===----------------------------------------------------------------------===//
// Taint (de)serialization — TaintResult is a plain aggregate, so it lives
// here rather than as a member of EnvAnalysis.
//===----------------------------------------------------------------------===//

namespace {

void emitBits(std::ostringstream &Out, const char *Tag,
              const std::vector<bool> &Bits) {
  Out << " " << Tag << " ";
  if (Bits.empty())
    Out << "-";
  else
    for (bool B : Bits)
      Out << (B ? '1' : '0');
  Out << "\n";
}

bool readBits(std::istringstream &In, const char *Expect, size_t Size,
              std::vector<bool> &Bits) {
  std::string Word, Str;
  if (!(In >> Word >> Str) || Word != Expect)
    return false;
  if (Str == "-")
    return Size == 0;
  if (Str.size() != Size)
    return false;
  Bits.resize(Size);
  for (size_t I = 0; I != Size; ++I)
    Bits[I] = Str[I] == '1';
  return true;
}

void emitNames(std::ostringstream &Out, const char *Tag,
               const std::set<std::string> &Names) {
  Out << Tag << " " << Names.size();
  for (const std::string &Name : Names)
    Out << " " << Name;
  Out << "\n";
}

bool readNames(std::istringstream &In, const char *Expect,
               std::set<std::string> &Names) {
  std::string Word, Name;
  size_t Count = 0;
  if (!(In >> Word >> Count) || Word != Expect)
    return false;
  for (size_t I = 0; I != Count; ++I) {
    if (!(In >> Name))
      return false;
    Names.insert(Name);
  }
  return true;
}

std::string serializeTaint(const TaintResult &T) {
  std::ostringstream Out;
  Out << "taint-v1\nprocs " << T.Procs.size() << "\n";
  for (size_t P = 0; P != T.Procs.size(); ++P) {
    const ProcTaint &PT = T.Procs[P];
    Out << "proc " << P << " nodes " << PT.InNI.size() << " ret "
        << (PT.TaintedReturn ? 1 : 0) << "\n";
    emitBits(Out, "inni", PT.InNI);
    emitBits(Out, "envsrc", PT.EnvSource);
    emitBits(Out, "tparams", PT.TaintedParams);
    size_t NonEmpty = 0;
    for (const std::set<std::string> &S : PT.VI)
      NonEmpty += !S.empty();
    Out << " vi " << NonEmpty << "\n";
    for (size_t N = 0; N != PT.VI.size(); ++N) {
      if (PT.VI[N].empty())
        continue;
      Out << "  " << N << " " << PT.VI[N].size();
      for (const std::string &Name : PT.VI[N])
        Out << " " << Name;
      Out << "\n";
    }
  }
  emitNames(Out, "globals", T.TaintedGlobals);
  emitNames(Out, "channels", T.TaintedChannels);
  emitNames(Out, "shared", T.TaintedShared);
  emitNames(Out, "xwritten", T.CrossWritten);
  emitNames(Out, "evertainted", T.EverTainted);
  return Out.str();
}

/// Rebuilds a TaintResult shaped for \p Mod; false on any mismatch.
bool deserializeTaint(const Module &Mod, const std::string &Blob,
                      TaintResult &T) {
  std::istringstream In(Blob);
  std::string Tag, Word;
  size_t NProcs = 0;
  if (!(In >> Tag) || Tag != "taint-v1")
    return false;
  if (!(In >> Word >> NProcs) || Word != "procs" ||
      NProcs != Mod.Procs.size())
    return false;
  T.Procs.resize(NProcs);
  for (size_t P = 0; P != NProcs; ++P) {
    ProcTaint &PT = T.Procs[P];
    size_t Id = 0, NNodes = 0, NVi = 0;
    int Ret = 0;
    if (!(In >> Word >> Id) || Word != "proc" || Id != P)
      return false;
    if (!(In >> Word >> NNodes) || Word != "nodes" ||
        NNodes != Mod.Procs[P].Nodes.size())
      return false;
    if (!(In >> Word >> Ret) || Word != "ret")
      return false;
    PT.TaintedReturn = Ret != 0;
    if (!readBits(In, "inni", NNodes, PT.InNI) ||
        !readBits(In, "envsrc", NNodes, PT.EnvSource) ||
        !readBits(In, "tparams", Mod.Procs[P].Params.size(),
                  PT.TaintedParams))
      return false;
    PT.VI.resize(NNodes);
    if (!(In >> Word >> NVi) || Word != "vi")
      return false;
    for (size_t K = 0; K != NVi; ++K) {
      size_t Node = 0, Count = 0;
      if (!(In >> Node >> Count) || Node >= NNodes)
        return false;
      for (size_t V = 0; V != Count; ++V) {
        std::string Name;
        if (!(In >> Name))
          return false;
        PT.VI[Node].insert(Name);
      }
    }
  }
  return readNames(In, "globals", T.TaintedGlobals) &&
         readNames(In, "channels", T.TaintedChannels) &&
         readNames(In, "shared", T.TaintedShared) &&
         readNames(In, "xwritten", T.CrossWritten) &&
         readNames(In, "evertainted", T.EverTainted);
}

//===----------------------------------------------------------------------===//
// Directory plumbing
//===----------------------------------------------------------------------===//

std::string aliasFile(uint64_t ModFp) { return "alias_" + hex(ModFp); }
std::string duFile(uint64_t ProcFp, uint64_t AliasRfp) {
  return "du_" + hex(ProcFp) + "_" + hex(AliasRfp);
}
std::string taintFile(uint64_t ModFp, const TaintOptions &Opts) {
  return "taint_" + hex(ModFp) + (Opts.CoarseMode ? "_coarse" : "_fine");
}

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

/// Write-to-temp plus atomic rename; concurrent writers of the same entry
/// (batch-mode workers) race benignly — both write identical bytes.
bool writeFileAtomic(const std::string &Dir, const std::string &Name,
                     const std::string &Data) {
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp = Dir + "/.tmp_" + std::to_string(::getpid()) + "_" +
                    std::to_string(Counter.fetch_add(1)) + "_" + Name;
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out << Data;
    if (!Out.good())
      return false;
  }
  std::error_code Ec;
  fs::rename(Tmp, Dir + "/" + Name, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// AnalysisCache
//===----------------------------------------------------------------------===//

AnalysisCache::AnalysisCache(std::string CacheDir) : Dir(std::move(CacheDir)) {
  if (Dir.empty())
    return;
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec || !fs::is_directory(Dir, Ec))
    Dir.clear(); // Degrade to a disabled cache.
}

void AnalysisCache::restore(AnalysisManager &AM, const TaintOptions &TaintOpts,
                            AnalysisCacheStats &Stats) {
  if (Dir.empty())
    return;
  const Module &Mod = AM.module();

  // One directory listing up front; all hit/miss decisions run against it.
  std::unordered_set<std::string> Listing;
  {
    std::error_code Ec;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec))
      Listing.insert(E.path().filename().string());
  }
  if (Listing.empty())
    return;

  uint64_t ModFp = fingerprintModule(Mod);
  std::vector<uint64_t> ProcFps;
  ProcFps.reserve(Mod.Procs.size());
  for (const ProcCfg &Proc : Mod.Procs)
    ProcFps.push_back(fingerprintProc(Proc));

  // Alias: exact module hit restores it outright. On a miss, per-procedure
  // define-use entries may still apply (same procedures inside an edited
  // module), but they are keyed by the alias *result* fingerprint — so
  // compute the alias analysis now (a genuine Computed) if any candidate
  // exists.
  uint64_t AliasRfp = 0;
  bool HaveAliasRfp = false;
  std::string Blob;
  if (Listing.count(aliasFile(ModFp)) &&
      readWholeFile(Dir + "/" + aliasFile(ModFp), Blob)) {
    if (std::unique_ptr<AliasAnalysis> A =
            AliasAnalysis::deserialize(Mod, Blob)) {
      AliasRfp = A->resultFingerprint();
      HaveAliasRfp = true;
      AM.preloadAlias(std::move(A));
      Stats.AliasRestored = 1;
    }
  }
  if (!HaveAliasRfp) {
    bool AnyDuCandidate = false;
    for (uint64_t Fp : ProcFps) {
      std::string Prefix = "du_" + hex(Fp) + "_";
      for (const std::string &Name : Listing)
        if (Name.compare(0, Prefix.size(), Prefix) == 0) {
          AnyDuCandidate = true;
          break;
        }
      if (AnyDuCandidate)
        break;
    }
    if (!AnyDuCandidate)
      return; // Nothing in the cache applies to this module.
    AliasRfp = AM.getAlias().resultFingerprint();
    HaveAliasRfp = true;
  }

  for (size_t I = 0; I != ProcFps.size(); ++I) {
    std::string Name = duFile(ProcFps[I], AliasRfp);
    if (!Listing.count(Name) || !readWholeFile(Dir + "/" + Name, Blob))
      continue;
    if (std::unique_ptr<ProcDataflow> DF =
            ProcDataflow::deserialize(Mod.Procs[I], Blob)) {
      AM.preloadDefUse(I, std::move(DF));
      ++Stats.DefUseRestored;
    }
  }

  // The taint fixpoint borrows the alias and every define-use graph, so it
  // is only installable when all of them restored (a taint entry for this
  // exact module fingerprint implies they were all saved together).
  if (Stats.AliasRestored && Stats.DefUseRestored == Mod.Procs.size() &&
      Listing.count(taintFile(ModFp, TaintOpts)) &&
      readWholeFile(Dir + "/" + taintFile(ModFp, TaintOpts), Blob)) {
    TaintResult T;
    if (deserializeTaint(Mod, Blob, T) &&
        AM.preloadEnvTaint(std::move(T), TaintOpts))
      Stats.TaintRestored = 1;
  }
}

void AnalysisCache::save(AnalysisManager &AM, const TaintOptions &TaintOpts,
                         AnalysisCacheStats &Stats) {
  if (Dir.empty())
    return;
  const AliasAnalysis *Alias = AM.cachedAlias();
  if (!Alias)
    return; // Without alias facts nothing else was computed either.
  const Module &Mod = AM.module();
  uint64_t ModFp = fingerprintModule(Mod);
  uint64_t AliasRfp = Alias->resultFingerprint();

  auto SaveEntry = [&](const std::string &Name, const std::string &Data) {
    std::error_code Ec;
    if (fs::exists(Dir + "/" + Name, Ec))
      return;
    if (writeFileAtomic(Dir, Name, Data))
      ++Stats.EntriesSaved;
  };
  SaveEntry(aliasFile(ModFp), Alias->serialize());
  for (size_t I = 0, E = Mod.Procs.size(); I != E; ++I)
    if (const ProcDataflow *DF = AM.cachedDefUse(I))
      SaveEntry(duFile(fingerprintProc(Mod.Procs[I]), AliasRfp),
                DF->serialize());
  if (const EnvAnalysis *Taint = AM.cachedEnvTaint(TaintOpts))
    SaveEntry(taintFile(ModFp, TaintOpts), serializeTaint(Taint->taint()));
}
