(* Child processes: the galatex CLI for indexing, and the daemons.  Every
   child is tracked until it has been reaped, so the benchmark never
   leaves a process behind. *)

let live : (int, string) Hashtbl.t = Hashtbl.create 8

let spawn ~log prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close out)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) devnull out out)
  in
  Hashtbl.replace live pid (String.concat " " args);
  pid

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* Run a child to completion; [Error] unless it exits 0. *)
let run ~log prog args =
  let pid = spawn ~log prog args in
  let _, status = waitpid_retry [] pid in
  Hashtbl.remove live pid;
  match status with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "%s exited %d" (List.hd args) n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s killed by signal %d" (List.hd args) n)

(* SIGTERM, then SIGKILL after [grace] seconds; returns once reaped. *)
let stop ?(grace = 5.) pid =
  if Hashtbl.mem live pid then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace in
    let rec wait () =
      match waitpid_retry [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    Hashtbl.remove live pid
  end

let stop_all () = List.iter (fun pid -> stop pid) (Hashtbl.to_seq_keys live |> List.of_seq)

(* Poll the no-engine health probe until the daemon answers. *)
let await_health ?(timeout = 30.) socket_path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    match Galatex_server.Client.health ~recv_timeout:1. ~socket_path () with
    | Ok _ -> Ok ()
    | Error e when Unix.gettimeofday () > deadline ->
        Error (Printf.sprintf "%s never answered Health: %s" socket_path e)
    | Error _ ->
        Unix.sleepf 0.002;
        poll ()
  in
  poll ()

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> Float.nan
      in
      scan ())

(* CPU seconds (user + system, every thread) a live process has used so
   far.  Linux charges a task only for the time it ran, not for time the
   hypervisor gave its virtual CPU to another guest, so this tracks the
   program's own work on a shared host.  /proc reports clock ticks of
   1/100 s (USER_HZ). *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* fields after the parenthesised command name, from field 3 (state) on *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  match String.split_on_char ' ' rest with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
      float_of_int (int_of_string utime + int_of_string stime) /. 100.
  | _ -> failwith (Printf.sprintf "/proc/%d/stat: unexpected format" pid)

(* CPU seconds the live threads of a process have used, from the
   nanosecond counters of /proc/<pid>/task/*/schedstat: precise enough
   for a start-up of a few milliseconds, but blind to threads that have
   already exited. *)
let threads_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Filename.concat (Filename.concat dir tid) "schedstat") with
      | exception Sys_error _ -> acc (* the thread exited meanwhile *)
      | ic ->
          let ns = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Scanf.sscanf (input_line ic) "%d" Fun.id) in
          acc +. (float_of_int ns /. 1e9))
    0. (Sys.readdir dir)

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
