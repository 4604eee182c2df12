// Software configuration management on Ode primitives — the paper's §2
// points at SCCS/RCS deltas and §5 at configurations; this example combines
// them into a small source-control system:
//
//   - each source file is a versioned object stored under the DELTA
//     strategy (small edits cost bytes proportional to the edit);
//   - a release is a frozen Configuration binding specific file versions;
//   - labels partition versions ("reviewed", "broken") Klahold-style.
//
// Build & run:  ./build/examples/software_config

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/database.h"
#include "core/version_ptr.h"
#include "policy/configuration.h"
#include "policy/labels.h"

namespace {

struct SourceFile {
  static constexpr char kTypeName[] = "scm.SourceFile";
  std::string path;
  std::string contents;
  void Serialize(ode::BufferWriter& w) const {
    w.WriteString(ode::Slice(path));
    w.WriteString(ode::Slice(contents));
  }
  static ode::StatusOr<SourceFile> Deserialize(ode::BufferReader& r) {
    SourceFile f;
    ODE_RETURN_IF_ERROR(r.ReadString(&f.path));
    ODE_RETURN_IF_ERROR(r.ReadString(&f.contents));
    return f;
  }
};

int Fail(const ode::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// A new committed revision of a file = newversion + store.
ode::StatusOr<ode::VersionPtr<SourceFile>> Commit(
    const ode::Ref<SourceFile>& file, const std::string& contents) {
  auto current = file.Load();
  if (!current.ok()) return current.status();
  auto revision = ode::newversion(file);
  if (!revision.ok()) return revision.status();
  SourceFile updated = *current;
  updated.contents = contents;
  ODE_RETURN_IF_ERROR(revision->Store(updated));
  return *revision;
}

}  // namespace

int main() {
  ode::DatabaseOptions options;
  options.storage.path = "/tmp/ode_software_config";
  options.payload_strategy = ode::PayloadKind::kDelta;  // SCCS/RCS-style.
  options.delta_keyframe_interval = 8;
  auto db_or = ode::Database::Open(options);
  if (!db_or.ok()) return Fail(db_or.status());
  ode::Database& db = **db_or;

  auto labels_or = ode::VersionLabels::Open(db);
  if (!labels_or.ok()) return Fail(labels_or.status());
  ode::VersionLabels& labels = **labels_or;

  // Two source files under version control.
  std::string main_src =
      "int main() {\n  return run();\n}\n";
  std::string lib_src = "int run() {\n  return 0;\n}\n";
  auto main_file = ode::pnew(db, SourceFile{"src/main.c", main_src});
  auto lib_file = ode::pnew(db, SourceFile{"src/lib.c", lib_src});
  if (!main_file.ok()) return Fail(main_file.status());
  if (!lib_file.ok()) return Fail(lib_file.status());

  // Development: a series of commits (each a small delta).
  for (int rev = 0; rev < 5; ++rev) {
    lib_src.insert(lib_src.find("return 0;"),
                   "/* fix #" + std::to_string(rev) + " */ ");
    auto committed = Commit(*lib_file, lib_src);
    if (!committed.ok()) return Fail(committed.status());
    if (rev % 2 == 0) {
      if (ode::Status s = labels.Add(committed->vid(), "reviewed"); !s.ok()) {
        return Fail(s);
      }
    }
  }

  // Cut release 1.0: freeze a configuration at the current versions.
  auto release = ode::Configuration::Create(db, "release-1.0");
  if (!release.ok()) return Fail(release.status());
  ode::Status s = release->BindDynamic("main.c", main_file->oid());
  if (s.ok()) s = release->BindDynamic("lib.c", lib_file->oid());
  if (s.ok()) s = release->Freeze();
  if (!s.ok()) return Fail(s);

  // Development continues past the release.
  auto committed = Commit(*lib_file, lib_src + "/* post-release */\n");
  if (!committed.ok()) return Fail(committed.status());

  // Report.
  std::printf("== head ==\n%s\n", (*lib_file)->contents.c_str());
  auto pinned = release->Resolve("lib.c");
  if (!pinned.ok()) return Fail(pinned.status());
  auto released = db.Get<SourceFile>(*pinned);
  if (!released.ok()) return Fail(released.status());
  std::printf("== release-1.0 (v%u) ==\n%s\n", pinned->vnum,
              released->contents.c_str());

  std::printf("reviewed revisions of lib.c:");
  for (ode::VersionId vid :
       labels.VersionsOfWith(lib_file->oid(), "reviewed")) {
    std::printf(" v%u", vid.vnum);
  }
  std::printf("\n");

  const ode::MetricsRegistry::Snapshot stats = db.MetricsSnapshot();
  std::printf(
      "\nstorage: %" PRIu64 " full payload bytes, %" PRIu64
      " delta payload bytes across %" PRIu64 " versions\n",
      stats.counter("core.full_bytes_written"),
      stats.counter("core.delta_bytes_written"),
      stats.counter("core.pnew") + stats.counter("core.newversion"));

  for (ode::ObjectId oid :
       {main_file->oid(), lib_file->oid(), release->oid()}) {
    if (ode::Status ds = db.PdeleteObject(oid); !ds.ok()) return Fail(ds);
  }
  std::printf("done.\n");
  return 0;
}
