(** What the suites that drive the built executables share.  The CLI
    and the bench are test dependencies built beside this executable's
    directory ([_build/default/bin] and [_build/default/bench] next to
    [_build/default/test]), so they are found from its absolute path;
    every file a case writes lives in a temporary directory removed
    after it.  A suite using these runs from any working directory and
    leaves it unchanged. *)

let built dir exe =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) (Filename.concat dir exe)

let cli = built "bin" "argus_cli.exe"
let bench = built "bench" "main.exe"

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(** Run [f dir] in a fresh temporary directory [dir], which is the
    working directory meanwhile; the old one is restored and [dir]
    removed with everything in it after. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "argus_test" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      remove dir)
    (fun () -> f dir)

(** [f], as a test case run in a fresh temporary directory. *)
let in_temp_dir f () = with_temp_dir (fun _ -> f ())

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0
