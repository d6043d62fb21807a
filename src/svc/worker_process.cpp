#include "svc/worker_process.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <thread>

extern char** environ;

namespace mfd::svc {

namespace {

/// Inherited environment with `extra` NAME=VALUE pairs overriding any
/// inherited binding of the same NAME. Returned strings back the char*
/// vector, which posix_spawn only needs for the duration of the call.
std::vector<std::string> merged_environment(
    const std::vector<std::string>& extra) {
  std::vector<std::string> env;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string binding(*entry);
    const std::size_t eq = binding.find('=');
    bool overridden = false;
    if (eq != std::string::npos) {
      const std::string prefix = binding.substr(0, eq + 1);  // "NAME="
      for (const std::string& override_binding : extra) {
        if (override_binding.rfind(prefix, 0) == 0) {
          overridden = true;
          break;
        }
      }
    }
    if (!overridden) env.push_back(binding);
  }
  for (const std::string& binding : extra) env.push_back(binding);
  return env;
}

void close_fd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

}  // namespace

std::string describe_wait_status(int wait_status) {
  if (WIFEXITED(wait_status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(wait_status));
  }
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    const char* name = strsignal(sig);
    return "killed by signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "unknown") + ")";
  }
  return "ended with wait status " + std::to_string(wait_status);
}

std::unique_ptr<WorkerProcess> WorkerProcess::spawn(
    const WorkerCommand& command, std::string* error) {
  if (command.argv.empty()) {
    if (error != nullptr) *error = "empty worker command";
    return nullptr;
  }

  // in_pipe: parent writes requests -> child stdin.
  // out_pipe: child stdout -> parent reads results.
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    if (error != nullptr) {
      *error = std::string("pipe2: ") + strerror(errno);
    }
    close_fd(&in_pipe[0]);
    close_fd(&in_pipe[1]);
    return nullptr;
  }

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // dup2 clears O_CLOEXEC on the child's copies; the parent-side ends stay
  // close-on-exec so one worker never inherits another worker's pipes.
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);

  std::vector<char*> argv;
  argv.reserve(command.argv.size() + 1);
  for (const std::string& arg : command.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const std::vector<std::string> env = merged_environment(command.env);
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (const std::string& binding : env) {
    envp.push_back(const_cast<char*>(binding.c_str()));
  }
  envp.push_back(nullptr);

  pid_t pid = -1;
  const int rc = ::posix_spawnp(&pid, argv[0], &actions, nullptr, argv.data(),
                                envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close_fd(&in_pipe[0]);   // child's ends belong to the child now
  close_fd(&out_pipe[1]);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "cannot spawn '" + command.argv[0] + "': " + strerror(rc);
    }
    close_fd(&in_pipe[1]);
    close_fd(&out_pipe[0]);
    return nullptr;
  }
  ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);

  std::unique_ptr<WorkerProcess> worker(new WorkerProcess());
  worker->pid_ = pid;
  worker->in_ = net::FramedConnection(in_pipe[1]);
  worker->out_ = net::FramedConnection(out_pipe[0]);
  return worker;
}

WorkerProcess::~WorkerProcess() {
  if (!joined_) {
    kill_now();
    join(0.0);
  }
}

bool WorkerProcess::send_line(const std::string& line) {
  if (!in_.valid()) return false;
  return in_.write_line(line);
}

void WorkerProcess::close_stdin() { in_.close(); }

void WorkerProcess::kill_now() {
  if (!joined_ && pid_ > 0) ::kill(pid_, SIGKILL);
}

int WorkerProcess::join(double grace_s) {
  if (joined_) return wait_status_;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(grace_s);
  bool killed = false;
  for (;;) {
    int status = 0;
    const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
    if (reaped == pid_) {
      wait_status_ = status;
      joined_ = true;
      return wait_status_;
    }
    if (reaped < 0 && errno != EINTR) {
      // ECHILD: someone else reaped it; report a clean exit.
      joined_ = true;
      return wait_status_;
    }
    if (!killed && std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(killed ? 1 : 2));
  }
}

}  // namespace mfd::svc
