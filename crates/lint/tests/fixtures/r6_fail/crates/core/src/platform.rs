pub struct LiflPlatform;
