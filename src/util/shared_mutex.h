#ifndef BBF_UTIL_SHARED_MUTEX_H_
#define BBF_UTIL_SHARED_MUTEX_H_

#include <pthread.h>

#include <cerrno>
#include <system_error>

namespace bbf {

/// A reader-writer lock that queues new readers behind a waiting writer,
/// with std::shared_mutex's method names so std::unique_lock and
/// std::shared_lock drive it.
///
/// std::shared_mutex is a default pthread_rwlock, which glibc makes
/// reader-preferring: while readers keep overlapping, an exclusive lock
/// waits indefinitely. On glibc this lock is a
/// PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP rwlock instead: once a
/// writer waits, new readers (try_lock_shared included) wait behind it,
/// and it gets the lock as soon as the readers already inside leave.
/// Other platforms keep their default rwlock.
///
/// Not recursive for readers: a thread that holds the shared lock must
/// not take it again, since its second lock_shared would queue behind a
/// writer that waits for its first.
class WriterPreferringMutex {
 public:
  WriterPreferringMutex() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#if defined(__GLIBC__)
    pthread_rwlockattr_setkind_np(
        &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    const int rc = pthread_rwlock_init(&lock_, &attr);
    pthread_rwlockattr_destroy(&attr);
    Check(rc);
  }
  ~WriterPreferringMutex() { pthread_rwlock_destroy(&lock_); }
  WriterPreferringMutex(const WriterPreferringMutex&) = delete;
  WriterPreferringMutex& operator=(const WriterPreferringMutex&) = delete;

  void lock() { Check(pthread_rwlock_wrlock(&lock_)); }
  void unlock() { pthread_rwlock_unlock(&lock_); }

  void lock_shared() {
    int rc;
    do {
      rc = pthread_rwlock_rdlock(&lock_);
    } while (rc == EAGAIN);  // Reader count at its ceiling: retry.
    Check(rc);
  }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&lock_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&lock_); }

 private:
  static void Check(int rc) {
    if (rc != 0) throw std::system_error(rc, std::generic_category());
  }

  pthread_rwlock_t lock_;
};

}  // namespace bbf

#endif  // BBF_UTIL_SHARED_MUTEX_H_
